"""EasyView end-to-end analyst benchmark.

Drives EasyView the way an IDE does and times every PVP request from its
request line to its response line, on three workloads (see
``workloads.py`` and ``README.md``)::

    python3 e2ebench/run.py --workload analyst_pprof --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` additionally
runs a traced pass and prints the per-layer metrics; ``--workload all``
runs every workload and prints one table; ``--quick`` uses tiny inputs.
Numbers are printed only when the correctness gate passes: the responses
match a fresh-process ``StdioServer`` replay, every opened profile's
totals match the generator's, and no request that was not superseded
failed.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".e2ebench")

WORKLOADS = ("analyst_pprof", "formats_store", "serve_pipelined")

#: The end-to-end metrics every workload reports (BENCHMARK.json).
E2E = (("open_s", "s"), ("first_view_s", "s"), ("warm_view_ms", "ms"),
       ("session_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

#: End-to-end metrics that exist only on the workloads that exercise them.
WORKLOAD_E2E = (("compare_s", "s"), ("query_s", "s"), ("ingest_mb_s", "MB/s"),
                ("serve_p50_ms", "ms"), ("serve_tail_ms", "ms"),
                ("serve_capacity_rps", "1/s"), ("error_ratio", "ratio"))

METHODS = ("view/open", "view/switchShape", "view/hover", "view/search",
           "view/select", "view/zoom", "view/diff", "view/aggregate",
           "view/close", "view/openQuery", "watch/report", "store/ingest")
CLASSES = ("view/open", "view/switchShape:first", "view/switchShape:warm",
           "view/hover:first", "view/hover:warm", "view/search:first",
           "view/search:warm", "view/select:warm", "view/zoom:first",
           "view/diff", "view/aggregate", "view/close", "view/openQuery",
           "watch/report", "store/ingest")
FORMATS = ("pprof", "collapsed", "easyview-json")
ENGINE_OPS = ("transform", "layout", "diff_trees", "diff_profiles",
              "merge_trees", "aggregate_profiles", "aggregate_window",
              "line_attribution")

#: The ROADMAP's attribution gate: unattributed time per request class.
UNATTRIBUTED_LIMIT = 0.10

#: How many times set-up runs in one run; set-up time is their median.
SETUP_REPEATS = 3

#: The program modules a run imports before its first request.
PROGRAM_MODULES = ("numpy", "repro.converters", "repro.analysis.aggregate",
                   "repro.analysis.diff", "repro.continuous.watch",
                   "repro.ide.session", "repro.ide.tips", "repro.serve",
                   "repro.store", "repro.viz.layout")

#: Run by a fresh interpreter to time the imports: ``-c IMPORT SRC MODULE...``.
IMPORT = ("import importlib, sys; sys.path.insert(0, sys.argv[1]); "
          "[importlib.import_module(m) for m in sys.argv[2:]]")


def key(text: str) -> str:
    return text.replace("/", "_").replace(":", "_")


def per_layer_names() -> List[Tuple[str, str]]:
    names = [("proto.decode_s", "s"), ("proto.decode_mb_s", "MB/s"),
             ("proto.decode_ceiling_frac", "ratio")]
    names += [("converters.parse_s.%s" % f, "s") for f in FORMATS]
    names += [("converters.columnar_share", "ratio"),
              ("core.inclusive_s", "s"),
              ("core.cct_build_nodes_per_s", "1/s"),
              ("core.cct_build_ceiling_frac", "ratio"),
              ("digest.profile_calls", "count"), ("digest.profile_s", "s"),
              ("digest.viewtree_calls", "count"), ("digest.viewtree_s", "s")]
    names += [("engine.%s.calls" % op, "count") for op in ENGINE_OPS]
    names += [("engine.hit_ratio", "ratio"), ("engine.hit_s", "s"),
              ("engine.miss_s", "s")]
    names += [("analysis.%s_s" % op, "s") for op in
              ("transform", "aggregate", "diff", "summarize", "search")]
    names += [("viewtree.materialize_calls", "count"),
              ("viewtree.materialized_nodes", "count"),
              ("viewtree.materialize_s", "s"),
              ("ide.line_attribution_s", "s"), ("ide.tips_s", "s"),
              ("viz.layout_s", "s"), ("viz.layout_rects", "count")]
    names += [("dispatch.handle_s.%s" % key(m), "s") for m in METHODS]
    names += [("dispatch.encode_s", "s"), ("dispatch.encode_bytes", "bytes"),
              ("serve.queue_wait_s", "s"), ("serve.cancelled", "count"),
              ("serve.superseded_ratio", "ratio"), ("serve.denied", "count"),
              ("serve.gen_late_ms", "ms"),
              ("store.ingest_s", "s"), ("store.flush_s", "s"),
              ("store.bytes_written", "bytes"), ("store.query_s", "s"),
              ("store.query_loads", "count"), ("watch.tick_s", "s")]
    names += [("unattributed_s.%s" % key(c), "s") for c in CLASSES]
    names += [("attribution.max_unattributed_share", "ratio"),
              ("obs.trace_overhead", "ratio"),
              ("roofline.memcpy_mb_s", "MB/s"),
              ("roofline.scatter_add_per_s", "1/s")]
    return names


class GateFailure(Exception):
    """The correctness gate refused the run."""


# -- set-up -----------------------------------------------------------------------

def load_program() -> None:
    sys.path.insert(0, SRC)
    for module in PROGRAM_MODULES:
        importlib.import_module(module)


def time_import() -> float:
    """Seconds a fresh interpreter takes to start and import the program."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT, SRC] + list(PROGRAM_MODULES),
                   check=True, timeout=120)
    return time.perf_counter() - started


def prepare(workload: str, ctx) -> Tuple[Any, List[Tuple[float, float]]]:
    """Set up several times; keep the first result.

    One set-up is what a run does before its first timed request: start
    an interpreter and import the program, write the inputs and, for the
    socket workload, start the server process.  Returns the kept result
    and, per set-up, its seconds and the machine speed probed around it.
    """
    import drive
    import workloads
    step = {"analyst_pprof": workloads.prepare_analyst,
            "formats_store": workloads.prepare_formats,
            "serve_pipelined": workloads.prepare_serve}[workload]
    kept = None
    times = []
    try:
        for attempt in range(SETUP_REPEATS):
            directory = os.path.join(ctx.work, "setup%d" % attempt)
            os.makedirs(directory)
            before = drive.speed_probe()
            started = time.perf_counter()
            time_import()
            prepared = step(ctx, directory)
            times.append((time.perf_counter() - started,
                          (before + drive.speed_probe()) / 2))
            if kept is None:
                kept = prepared
            else:
                if workload == "serve_pipelined":
                    prepared[1].stop()
                shutil.rmtree(directory)
    except BaseException:
        if kept is not None and workload == "serve_pipelined":
            kept[1].kill()
        raise
    return kept, times


# -- the correctness gate ---------------------------------------------------------

def replay(ctx, connections, label: str) -> List[List[str]]:
    """Fresh-process StdioServer output for each connection's lines."""
    directory = os.path.join(ctx.work, "replay-" + label)
    os.makedirs(directory)
    files = []
    for index, connection in enumerate(connections):
        source = os.path.join(directory, "c%d.in" % index)
        with open(source, "w", encoding="utf-8") as handle:
            handle.write("\n".join(connection.lines) + "\n")
        files += [source, os.path.join(directory, "c%d.out" % index)]
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "replay.py"), "--src", SRC]
        + files, cwd=directory, capture_output=True, timeout=170)
    if completed.returncode != 0:
        raise GateFailure("replay failed: %s"
                          % completed.stderr.decode()[-2000:])
    outputs = []
    for index in range(len(connections)):
        with open(files[2 * index + 1], encoding="utf-8") as handle:
            outputs.append(handle.read().splitlines())
    return outputs


def check_replay(ctx, result, label: str) -> Dict[str, str]:
    """Compare canonical responses with the replay; returns digests."""
    from repro.serve.loadgen import digest_lines
    digests = {}
    references = replay(ctx, result.connections, label)
    for index, (connection, reference) in enumerate(
            zip(result.connections, references)):
        ours = _split(connection.output)
        theirs = _split(reference)
        executed_ours = {rid: line for rid, line in ours[0].items()
                         if rid not in connection.skipped}
        executed_theirs = {rid: theirs[0].get(rid)
                           for rid in executed_ours}
        for rid, line in sorted(executed_ours.items()):
            if executed_theirs[rid] != line:
                raise GateFailure(
                    "%s connection %d: response %s differs from the "
                    "StdioServer replay:\n  run:    %s\n  replay: %s"
                    % (label, index, rid, line[:300],
                       str(executed_theirs[rid])[:300]))
        if set(ours[0]) != {json.loads(line)["id"]
                            for line in connection.lines}:
            raise GateFailure("%s connection %d: not every request was "
                              "answered" % (label, index))
        if ours[1] - theirs[1]:
            raise GateFailure("%s connection %d: notifications the replay "
                              "never sent" % (label, index))
        if not connection.skipped and ours[2] != theirs[2]:
            raise GateFailure("%s connection %d: output order differs from "
                              "the replay" % (label, index))
        mine = digest_lines(list(executed_ours.values()))
        if mine != digest_lines(list(executed_theirs.values())):
            raise GateFailure("%s connection %d: digest mismatch"
                              % (label, index))
        digests["%s/c%d" % (label, index)] = mine
    return digests


def _split(lines):
    """(id -> canonical response, Counter of notifications, ordered)."""
    import drive
    responses = {}
    notes = collections.Counter()
    ordered = []
    for line in lines:
        payload = json.loads(line)
        canonical = drive.canonical_line(payload)
        ordered.append(canonical)
        if "method" in payload:
            notes[canonical] += 1
        else:
            responses[payload.get("id")] = canonical
    return responses, notes, ordered


def check_totals(result) -> int:
    for label, expected, actual in result.totals:
        for name, value in expected.items():
            if actual.get(name) != value:
                raise GateFailure(
                    "%s: total of %r is %r, the generator wrote %r"
                    % (label, name, actual.get(name), value))
    return len(result.totals)


def check_serve_totals(result, inputs) -> int:
    """Socket opens: the summary totals equal the generator's, formatted."""
    from repro.core.metric import Metric
    units = {"cpu": "nanoseconds", "samples": "count"}
    expected = {source.path: source.totals for source in inputs.all()}
    checked = 0
    for connection in result.connections:
        sent = {}
        for line in connection.lines:
            payload = json.loads(line)
            if payload["method"] == "view/open":
                sent[payload["id"]] = payload["params"]["path"]
        for line in connection.output:
            payload = json.loads(line)
            if payload.get("id") in sent and "result" in payload:
                totals = payload["result"]["summary"]["metrics"]
                for name, value in expected[sent[payload["id"]]].items():
                    want = Metric(name, unit=units[name]).format_value(value)
                    if totals.get(name) != want:
                        raise GateFailure("socket open of %s: %s total %r, "
                                          "expected %r"
                                          % (sent[payload["id"]], name,
                                             totals.get(name), want))
                checked += 1
    return checked


def check_errors(result) -> None:
    for record in result.records:
        if not record.ok and not record.cancelled:
            raise GateFailure("request %s (%s) answered with an error"
                              % (record.rid, record.method))


def tamper(result) -> None:
    """Self-test hook: corrupt one recorded response."""
    output = result.connections[0].output
    for index, line in enumerate(output):
        payload = json.loads(line)
        if "result" in payload and isinstance(payload["result"], dict):
            payload["result"]["tampered"] = True
            output[index] = json.dumps(payload, sort_keys=True)
            return


# -- metrics ----------------------------------------------------------------------

def e2e_metrics(result, setups: List[Tuple[float, float]],
                nominal: bool = True) -> Dict[str, float]:
    """The BENCHMARK.json metrics.

    A socket run takes its request latencies and its sessions from the
    closed-loop phase.

    Latencies and set-up times are scaled to the machine's nominal speed
    (see ``drive.speed_probe``) unless ``nominal`` is false.
    """
    import drive
    kinds = drive.by_kind(_measured(result), nominal)
    sessions = session_sums(result, nominal)
    return {
        # A mean, not the median: an analyst_pprof run has three opens, and
        # their median spread by up to 0.21 between runs, their mean by
        # up to 0.18.
        "open_s": drive.mean(kinds["open"]),
        "first_view_s": drive.trimmed_mean(kinds["first"]),
        "warm_view_ms": 1e3 * drive.geometric_mean(kinds["warm"]),
        # A mean, not a median: sessions in which a full collection of
        # the server's growing heap lands take two to four times as long
        # as the rest, and the median of such a mix jumps between them.
        "session_s": drive.mean(sessions),
        "peak_rss_mb": result.peak_rss_mb,
        "setup_s": drive.median([
            seconds * drive.NOMINAL_PROBE_S / probe if nominal else seconds
            for seconds, probe in setups]),
    }


def session_sums(result, nominal: bool = True) -> List[float]:
    """Per session, its executed requests' latencies summed."""
    return [sum(r.nominal if nominal else r.seconds for r in session
                if r.ok and not r.cancelled)
            for session in result.sessions]


def _measured(result) -> List[Any]:
    """The requests the end-to-end metrics count: a socket run's
    closed-loop phase, every request of an in-process run."""
    phase = result.extra.get("measured_phase")
    return [r for r in result.records if phase is None or r.phase == phase]


def _samples(result) -> Dict[str, List[float]]:
    """Every nominal latency behind the end-to-end metrics, per kind."""
    import drive
    return dict(drive.by_kind(_measured(result)))


def _probe_median(result) -> float:
    import drive
    return drive.median([r.probe for r in result.records if r.probe])


def workload_metrics(workload: str, result) -> Dict[str, Any]:
    """The workload-specific end-to-end metrics (None where n/a)."""
    import drive
    kinds = drive.by_kind(result.records, nominal=False)
    attempted = len(result.records)
    failed = sum(1 for r in result.records
                 if not r.ok and not r.cancelled) + \
        sum(1 for r in result.records if r.denied)
    out: Dict[str, Any] = {name: None for name, _ in WORKLOAD_E2E}
    out["compare_s"] = drive.median(kinds["compare"]) \
        if kinds["compare"] else None
    out["query_s"] = drive.median(kinds["query"]) if kinds["query"] else None
    if result.ingest_bytes:
        out["ingest_mb_s"] = result.ingest_bytes / 1e6 / (
            result.ingest_seconds + result.flush_seconds)
    out["error_ratio"] = failed / attempted if attempted else 0.0
    if workload == "serve_pipelined":
        base = result.extra["base"]
        out["serve_p50_ms"] = base["p50_ms"]
        out["serve_tail_ms"] = base["tail_ms"]
        out["serve_tail_pct"] = base["tail_pct"]
        out["serve_tail_n"] = base["tail_n"]
        out["serve_capacity_rps"] = result.extra["capacity_rps"]
        out["error_ratio"] = (base["failed"] + base["denied"]) / \
            base["attempted"] if base["attempted"] else 0.0
    return out


def top_level(spans_list, name_prefix: str = "") -> List[list]:
    """Spans with no ancestor of the same name (no double counting)."""
    import spans as sp
    by_id = {s[sp.SID]: s for s in spans_list}
    out = []
    for span in spans_list:
        if name_prefix and not span[sp.NAME].startswith(name_prefix):
            continue
        parent = by_id.get(span[sp.PARENT])
        nested = False
        while parent is not None:
            if parent[sp.NAME] == span[sp.NAME]:
                nested = True
                break
            parent = by_id.get(parent[sp.PARENT])
        if not nested:
            out.append(span)
    return out


def layer_metrics(spans_list, roots, ceilings, extra) -> Dict[str, float]:
    import spans as sp
    dur = lambda s: (s[sp.END] - s[sp.START]) / 1e9  # noqa: E731
    own = sp.self_times(spans_list)
    tops = top_level(spans_list)
    by_name: Dict[str, List[list]] = collections.defaultdict(list)
    for span in tops:
        by_name[span[sp.NAME]].append(span)
    total = lambda name: sum(dur(s) for s in by_name[name])  # noqa: E731
    count = lambda name: len(by_name[name])  # noqa: E731
    m: Dict[str, float] = {name: 0.0 for name, _ in per_layer_names()}

    decode_s = total("proto.decode")
    decode_bytes = sum(s[sp.ATTRS].get("bytes", 0)
                       for s in by_name["proto.decode"])
    m["proto.decode_s"] = decode_s
    m["proto.decode_mb_s"] = decode_bytes / 1e6 / decode_s if decode_s else 0
    m["proto.decode_ceiling_frac"] = (m["proto.decode_mb_s"]
                                      / ceilings["memcpy_mb_s"])
    parses = by_name["converters.parse"]
    for fmt in FORMATS:
        m["converters.parse_s.%s" % fmt] = sum(
            dur(s) for s in parses if s[sp.ATTRS].get("format") == fmt)
    if parses:
        m["converters.columnar_share"] = sum(
            1 for s in parses if s[sp.ATTRS].get("columnar")) / len(parses)
    # CCT build: a columnar parse's self time (its decode is a child).
    build_s = sum(own[s[sp.SID]] for s in parses
                  if s[sp.ATTRS].get("columnar"))
    build_nodes = sum(s[sp.ATTRS].get("nodes", 0) for s in parses
                      if s[sp.ATTRS].get("columnar"))
    if build_s:
        m["core.cct_build_nodes_per_s"] = build_nodes / build_s
        m["core.cct_build_ceiling_frac"] = (build_nodes / build_s
                                            / ceilings["scatter_add_per_s"])
    m["core.inclusive_s"] = total("core.inclusive")
    for name in ("profile", "viewtree"):
        m["digest.%s_calls" % name] = count("digest." + name)
        m["digest.%s_s" % name] = total("digest." + name)
    hits = misses = 0
    for op in ENGINE_OPS:
        spans_op = by_name["engine." + op]
        m["engine.%s.calls" % op] = len(spans_op)
        for span in spans_op:
            hit = span[sp.ATTRS].get("hit")
            if hit is True:
                hits += 1
                m["engine.hit_s"] += dur(span)
            elif hit is False:
                misses += 1
                m["engine.miss_s"] += dur(span)
    m["engine.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for op in ("transform", "aggregate", "diff", "summarize", "search"):
        m["analysis.%s_s" % op] = total("analysis." + op)
    m["viewtree.materialize_calls"] = count("viewtree.materialize")
    m["viewtree.materialized_nodes"] = sum(
        s[sp.ATTRS].get("nodes", 0) for s in by_name["viewtree.materialize"])
    m["viewtree.materialize_s"] = total("viewtree.materialize")
    m["ide.line_attribution_s"] = total("ide.line_attribution")
    m["ide.tips_s"] = total("ide.tips")
    m["viz.layout_s"] = total("viz.layout")
    m["viz.layout_rects"] = sum(s[sp.ATTRS].get("rects", 0)
                                for s in by_name["viz.layout"])
    for method in METHODS:
        m["dispatch.handle_s.%s" % key(method)] = sum(
            dur(s) for s in by_name["dispatch.handle"]
            if s[sp.ATTRS].get("method") == method)
    m["dispatch.encode_s"] = total("dispatch.encode")
    m["dispatch.encode_bytes"] = sum(s[sp.ATTRS].get("bytes", 0)
                                     for s in by_name["dispatch.encode"])
    m["store.ingest_s"] = total("store.ingest")
    m["store.flush_s"] = total("store.flush")
    m["store.query_s"] = total("store.query")
    m["store.query_loads"] = count("store.load")
    m["watch.tick_s"] = total("watch.tick")
    m.update({k: v for k, v in extra.items() if k in m})

    table = sp.attribution(spans_list, roots)
    for klass, row in table.items():
        name = "unattributed_s.%s" % key(klass)
        if name in m:
            m[name] = row["unattributed_s"]
    m["attribution.max_unattributed_share"] = max(
        (row["unattributed_share"] for row in table.values()), default=0.0)
    m["roofline.memcpy_mb_s"] = ceilings["memcpy_mb_s"]
    m["roofline.scatter_add_per_s"] = ceilings["scatter_add_per_s"]
    return m, table


def measure_ceilings() -> Dict[str, float]:
    """Roofline ceilings on this machine: copy bandwidth, scatter-add rate."""
    import numpy as np
    source = np.ones(8 * 1024 * 1024)          # 64 MiB
    target = np.empty_like(source)
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        np.copyto(target, source)
        best = min(best, time.perf_counter() - started)
    memcpy = source.nbytes / 1e6 / best
    rng = np.random.default_rng(0)
    index = rng.integers(0, 100_000, size=2_000_000)
    values = np.ones(index.shape[0])
    out = np.zeros(100_000)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        np.add.at(out, index, values)
        best = min(best, time.perf_counter() - started)
    return {"memcpy_mb_s": memcpy, "scatter_add_per_s": index.shape[0] / best}


# -- one run ----------------------------------------------------------------------

def traced_in_process(ctx, result) -> Tuple[list, Dict, float, Any]:
    """Repeat the run request for request with every layer wrapped."""
    import drive
    import spans as sp
    from repro.engine import get_engine
    directory = os.path.join(ctx.work, "traced")
    os.makedirs(directory)
    get_engine().clear()
    recorder = sp.Recorder()
    uninstall = sp.install(recorder)
    previous = os.getcwd()
    os.chdir(directory)
    try:
        client = drive.InProcessClient(recorder=recorder)
        client.replay(result.steps)
    finally:
        os.chdir(previous)
        uninstall()
    if [drive.canonical_line(json.loads(line)) for line in client.output] \
            != [drive.canonical_line(json.loads(line))
                for line in result.connections[0].output]:
        raise GateFailure("the traced pass answered differently")
    roots = {"stdio:%s" % r.rid: (r.klass, r.seconds)
             for r in client.records}
    untraced = sum(r.seconds for r in result.records)
    traced = sum(r.seconds for r in client.records)
    return recorder.spans, roots, traced / untraced - 1.0, client


def traced_serve(ctx, prepared, result) -> Tuple[list, Dict, float, Dict]:
    """The base rung again against a traced server process."""
    import workloads
    inputs, _ = prepared
    rates = workloads.ladder(ctx)
    base_index = rates.index(workloads.BASE_RATE)
    durations = workloads.ladder_durations(ctx.seconds, rates)
    server = workloads.ServerProcess(
        ctx, os.path.join(ctx.work, "traced-server.json"), trace=True)
    try:
        connections, rungs, probes = workloads.run_ladder(
            ctx, server,
            workloads.ServeInputs([inputs.rungs[base_index]], []),
            (workloads.BASE_RATE,),
            [durations[base_index]])
    finally:
        report = server.stop()
    traced = workloads.serve_result(connections, rungs, report, probes)
    check_replay(ctx, traced, "traced")
    check_errors(traced)
    base = result.extra["base"]
    overhead = traced.extra["base"]["p50_ms"] / base["p50_ms"] - 1.0
    # Server session ids are c1, c2 in connection order.
    roots = {}
    for record in traced.records:
        conn, rid = record.rid.split(":")
        if not record.cancelled:
            roots["c%d:%s" % (int(conn[1:]) + 1, rid)] = (record.klass,
                                                         record.seconds)
    stats = report["stats"]
    burst = sum(1 for c in connections for e in c.done
                if e["method"] == "view/hover")
    extra = {
        "serve.queue_wait_s": report["queue_seconds"].get("sum", 0.0),
        "serve.cancelled": stats["cancelled"],
        "serve.denied": stats["denied"],
        "serve.superseded_ratio": stats["cancelled"] / burst if burst else 0,
        "serve.gen_late_ms": traced.extra["base"]["gen_late_ms_p50"],
    }
    return report["spans"], roots, overhead, extra


def reset_peak_rss() -> None:
    """Start the process's resident-memory high-water mark afresh."""
    gc.collect()
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Resident-memory high-water mark since :func:`reset_peak_rss`."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_one(workload: str, args) -> Dict[str, Any]:
    load_program()
    import workloads
    work = os.path.join(OUT, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                            quick=args.quick, src=SRC, work=work)
    server = None
    try:
        prepared, setups = prepare(workload, ctx)
        if workload == "serve_pipelined":
            inputs, server = prepared
        run_dir = os.path.join(work, "run")
        os.makedirs(run_dir)
        if workload == "serve_pipelined":
            rates = workloads.ladder(ctx)
            connections, rungs, probes = workloads.run_ladder(
                ctx, server, inputs, rates,
                workloads.ladder_durations(args.seconds, rates))
            report = server.stop()
            server = None
            result = workloads.serve_result(connections, rungs, report,
                                            probes)
        else:
            os.chdir(run_dir)
            try:
                runner = (workloads.run_analyst
                          if workload == "analyst_pprof"
                          else workloads.run_formats)
                reset_peak_rss()
                result = runner(ctx, prepared)
                result.peak_rss_mb = peak_rss_mb()
            finally:
                os.chdir(ROOT)

        if args.tamper:
            tamper(result)
        digests = check_replay(ctx, result, "run")
        if workload == "serve_pipelined":
            opened = check_serve_totals(result, prepared[0])
        else:
            opened = check_totals(result)
        check_errors(result)

        report = {"workload": workload, "seed": args.seed,
                  "seconds": args.seconds, "quick": args.quick,
                  "attempted": len(result.records),
                  "failed": sum(1 for r in result.records
                                if not r.ok and not r.cancelled),
                  "gate": {"digests": digests, "profiles_checked": opened},
                  "e2e": e2e_metrics(result, setups),
                  "e2e_raw": e2e_metrics(result, setups, nominal=False),
                  "probe_median_s": _probe_median(result),
                  "setups": setups,
                  "samples": _samples(result),
                  "session_sums": session_sums(result),
                  "workload_e2e": workload_metrics(workload, result),
                  "extra": {k: v for k, v in result.extra.items()
                            if k not in ("server",)}}
        if args.trace:
            ceilings = measure_ceilings()
            if workload == "serve_pipelined":
                spans_list, roots, overhead, extra = traced_serve(
                    ctx, prepared, result)
            else:
                spans_list, roots, overhead, _ = traced_in_process(
                    ctx, result)
                extra = {"store.bytes_written":
                         result.extra.get("store_bytes_written", 0)}
            layers, table = layer_metrics(spans_list, roots, ceilings, extra)
            layers["obs.trace_overhead"] = overhead
            report["per_layer"] = layers
            report["attribution"] = table
            import spans as sp
            os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
            trace_path = os.path.join(OUT, "traces", "%s-seed%d.trace.json"
                                      % (workload, args.seed))
            sp.write_chrome_trace(spans_list, trace_path)
            report["trace"] = os.path.relpath(trace_path, ROOT)
        return report
    finally:
        if server is not None:
            server.kill()
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


# -- output -----------------------------------------------------------------------

def _fmt(value: Any) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def print_report(report: Dict[str, Any]) -> None:
    print("workload %s  seed %d  seconds %s  attempted %d  failed %d"
          % (report["workload"], report["seed"], report["seconds"],
             report["attempted"], report["failed"]))
    print("correctness gate: passed (%d profiles' totals checked, digests %s)"
          % (report["gate"]["profiles_checked"],
             ", ".join("%s=%s" % kv
                       for kv in sorted(report["gate"]["digests"].items()))))
    units = dict(E2E + WORKLOAD_E2E)
    print("  %-28s %14s %14s" % ("end-to-end", "nominal speed", "as measured"))
    for name, value in report["e2e"].items():
        print("  %-28s %14s %14s %s" % (name, _fmt(value),
                                        _fmt(report["e2e_raw"][name]),
                                        units[name]))
    for name, value in report["workload_e2e"].items():
        print("  %-28s %14s %14s %s" % (name, "", _fmt(value),
                                        units.get(name, "")))
    import drive
    print("  speed probe median %.4g ms (nominal %.4g ms)"
          % (1e3 * report["probe_median_s"], 1e3 * drive.NOMINAL_PROBE_S))
    ladder = report["extra"].get("ladder")
    if ladder:
        print("  serve ladder (rate -> p50 ms, tail ms @pct/n, drain s, "
              "cancelled, denied, gen late p50/max ms, within budget):")
        for rung in ladder:
            print("    %4d req/s: %8.1f %8.1f @%.1f/%d %6.3f %4d %3d "
                  "%6.2f/%7.2f %s"
                  % (rung["rate"], rung["p50_ms"], rung["tail_ms"],
                     rung["tail_pct"], rung["tail_n"], rung["drain_s"],
                     rung["cancelled"], rung["denied"],
                     rung["gen_late_ms_p50"], rung["gen_late_ms_max"],
                     rung["meets_budget"]))
    if "open_query_first_s" in report["extra"]:
        print("  view/openQuery first %.4f s, repeated on an unchanged store "
              "%.4f s" % (report["extra"]["open_query_first_s"],
                          report["extra"]["open_query_repeat_s"]))
    if "per_layer" in report:
        import spans as sp
        units = dict(per_layer_names())
        for name, value in report["per_layer"].items():
            print("  %-42s %14s %s" % (name, _fmt(value), units.get(name, "")))
        print("per request class (seconds summed over the traced pass; "
              "layer columns are self time):")
        print(sp.format_attribution(report["attribution"]))
        worst = report["per_layer"]["attribution.max_unattributed_share"]
        if report["workload"] == "analyst_pprof" and \
                worst > UNATTRIBUTED_LIMIT:
            print("warning: unattributed share %.1f%% exceeds %.0f%%"
                  % (100 * worst, 100 * UNATTRIBUTED_LIMIT))
        print("trace (chrome-trace, opens in easyview): %s" % report["trace"])


def result_line(report: Dict[str, Any], trace: bool) -> str:
    if trace:
        metrics = {name: {"value": float(report["per_layer"][name]),
                          "unit": unit}
                   for name, unit in per_layer_names()}
    else:
        metrics = {name: {"value": float(report["e2e"][name]), "unit": unit}
                   for name, unit in E2E}
    return json.dumps({"correct": True, "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def report_path(workload: str, seed: int, trace: int) -> str:
    """Where a run writes its full report."""
    return os.path.join(OUT, "%s-seed%d-trace%d.json" % (workload, seed, trace))


def run_all(args) -> int:
    """Every workload, each in its own process, then one summary table."""
    reports = []
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload",
                   workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            command.append("--quick")
        completed = subprocess.run(command, capture_output=True, text=True,
                                   timeout=900)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            return completed.returncode
        with open(report_path(workload, args.seed, args.trace),
                  encoding="utf-8") as handle:
            reports.append(json.load(handle))
    names = [name for name, _ in E2E + WORKLOAD_E2E]
    units = dict(E2E + WORKLOAD_E2E)
    print("%-22s" % "metric" + "".join("%18s" % w for w in WORKLOADS))
    for name in names:
        row = [r["e2e"].get(name, r["workload_e2e"].get(name))
               for r in reports]
        print("%-22s" % ("%s (%s)" % (name, units[name]))
              + "".join("%18s" % _fmt(v) for v in row))
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    merged = {"%s.%s" % (r["workload"], name): {
        "value": float(value), "unit": units[name]}
        for r in reports for name, value in r["e2e"].items()}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs (self-tests)")
    parser.add_argument("--tamper", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("e2ebench: the program's sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        report = run_one(args.workload, args)
    except GateFailure as exc:
        print("e2ebench: correctness gate refused the run: %s" % exc,
              file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    with open(report_path(args.workload, args.seed, args.trace), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True, default=str)
    print_report(report)
    print(result_line(report, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
