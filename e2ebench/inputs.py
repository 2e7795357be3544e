"""Benchmark inputs: corpus profiles written in the formats a workload reads.

Every profile comes from :func:`repro.profilers.corpus.generate` with a
seed derived from the benchmark's ``--seed``; the program only ever sees
the files written here.  Alongside each file the generator keeps what the
correctness gate needs: the sample totals per metric, and source lines
that carry samples (hover targets).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.profilers.corpus import CorpusSpec, generate, tier
from repro.proto import pprof_pb

#: Capture timestamps for profiles that carry one (EasyView JSON): the
#: corpus stamps every profile with the same instant, so the store's
#: time windows would all coincide.
BASE_TIME_NANOS = 1_700_000_000_000_000_000
CAPTURE_STEP_NANOS = 60 * 10 ** 9


@dataclass
class Input:
    """One generated profile file and its ground truth."""

    path: str
    fmt: str                       # "pprof", "collapsed", "easyview-json"
    seed: int
    raw_bytes: int
    totals: Dict[str, float]       # metric name -> sum over samples
    hover_targets: List[Tuple[str, int]] = field(default_factory=list)
    time_nanos: int = 0


def spec_for(tier_name: str, seed: int) -> CorpusSpec:
    return replace(tier(tier_name), seed=seed)


def derive_seeds(seed: int, count: int, salt: str) -> List[int]:
    rng = random.Random("%s:%d" % (salt, seed))
    return [rng.randrange(1, 2 ** 31) for _ in range(count)]


def _hover_targets(message: pprof_pb.Profile, count: int = 3
                   ) -> List[Tuple[str, int]]:
    """Source lines of the most-sampled leaf locations."""
    weight: Dict[int, int] = {}
    for sample in message.sample:
        leaf = sample.location_id[0]
        weight[leaf] = weight.get(leaf, 0) + sample.value[0]
    functions = {f.id: f for f in message.function}
    locations = {loc.id: loc for loc in message.location}
    targets: List[Tuple[str, int]] = []
    for leaf, _ in sorted(weight.items(), key=lambda kv: (-kv[1], kv[0])):
        line = locations[leaf].line[0]
        target = (message.string_table[functions[line.function_id].filename],
                  int(line.line))
        if target not in targets:
            targets.append(target)
        if len(targets) == count:
            break
    return targets


def _totals(message: pprof_pb.Profile) -> Dict[str, float]:
    names = [message.string_table[vt.type] for vt in message.sample_type]
    sums = [0] * len(names)
    for sample in message.sample:
        for index, value in enumerate(sample.value):
            sums[index] += value
    return {name: float(total) for name, total in zip(names, sums)}


def _folded(message: pprof_pb.Profile) -> str:
    """Folded stacks with integer counts, as stackcollapse tools write them.

    Frames carry ``name (file:line)`` so hovers resolve; the count is the
    first sample value (CPU nanoseconds).
    """
    table = message.string_table
    functions = {f.id: f for f in message.function}
    frame_text: Dict[int, str] = {}
    for loc in message.location:
        line = loc.line[0]
        fn = functions[line.function_id]
        frame_text[loc.id] = "%s (%s:%d)" % (table[fn.name],
                                             table[fn.filename], line.line)
    counts: Dict[str, int] = {}
    for sample in message.sample:
        stack = ";".join(frame_text[lid]
                         for lid in reversed(sample.location_id))
        counts[stack] = counts.get(stack, 0) + int(sample.value[0])
    return "".join("%s %d\n" % item for item in sorted(counts.items()))


def write_pprof(directory: str, tier_name: str, seed: int,
                name: str) -> Input:
    message = generate(spec_for(tier_name, seed))
    data = pprof_pb.dumps(message)
    path = os.path.join(directory, name + ".pb.gz")
    with open(path, "wb") as handle:
        handle.write(data)
    return Input(path=path, fmt="pprof", seed=seed, raw_bytes=len(data),
                 totals=_totals(message),
                 hover_targets=_hover_targets(message))


def write_folded(directory: str, tier_name: str, seed: int,
                 name: str) -> Input:
    message = generate(spec_for(tier_name, seed))
    text = _folded(message).encode("utf-8")
    path = os.path.join(directory, name + ".folded")
    with open(path, "wb") as handle:
        handle.write(text)
    cpu = _totals(message)["cpu"]
    return Input(path=path, fmt="collapsed", seed=seed,
                 raw_bytes=len(text), totals={"samples": cpu},
                 hover_targets=_hover_targets(message))


def write_json(directory: str, tier_name: str, seed: int, name: str,
               capture_index: int) -> Input:
    """EasyView JSON of the corpus profile, stamped with a capture time."""
    from repro.converters import parse_bytes
    from repro.core import jsonio
    message = generate(spec_for(tier_name, seed))
    profile = parse_bytes(pprof_pb.dumps(message, compress=False),
                          format="pprof")
    time_nanos = BASE_TIME_NANOS + capture_index * CAPTURE_STEP_NANOS
    profile.meta.time_nanos = time_nanos
    text = jsonio.dumps(profile, indent=0).encode("utf-8")
    path = os.path.join(directory, name + ".ezvw.json")
    with open(path, "wb") as handle:
        handle.write(text)
    return Input(path=path, fmt="easyview-json", seed=seed,
                 raw_bytes=len(text), totals=_totals(message),
                 hover_targets=_hover_targets(message),
                 time_nanos=time_nanos)
