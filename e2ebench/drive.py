"""Driving EasyView like an IDE: request scripts, the in-process client,
and the statistics every workload reports.

The in-process client sends each request through the path both
transports share, ``serve.dispatch.parse_line -> Dispatcher.handle ->
Response.to_json``, and times it from the request line to the response
line.  It records the exact wire lines and every output line, so a
fresh-process ``StdioServer`` can replay the run for the correctness
gate, and a traced pass can repeat it request for request.
"""

from __future__ import annotations

import bisect
import gc
import io
import json
import math
import statistics
import time
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ide import protocol as pvp
from repro.ide.session import ViewerSession
from repro.serve import dispatch as dispatch_mod
from repro.serve.loadgen import analyst_script

import spans

#: Output keys whose values depend on the wall clock, not on the input:
#: the open latency the server reports about itself (masked by
#: ``serve.loadgen.canonical_line`` too) and the ingest time the store
#: stamps on a profile that carries none (folded stacks).
VOLATILE_KEYS = frozenset({"responseSeconds", "timeNanos"})

#: Request kinds and the end-to-end metric each feeds.
OPEN, FIRST, WARM, COMPARE, QUERY, INGEST, OTHER = (
    "open", "first", "warm", "compare", "query", "ingest", "other")


def canonical_line(payload: Any) -> str:
    """A wire line as volatile-free canonical JSON.

    Same scrub as :func:`repro.serve.loadgen.canonical_line`, with the
    store's ingest-time stamp added to the masked keys.
    """
    def scrub(value: Any) -> Any:
        if isinstance(value, dict):
            return {k: scrub(v) for k, v in sorted(value.items())
                    if k not in VOLATILE_KEYS}
        if isinstance(value, list):
            return [scrub(v) for v in value]
        return value
    return json.dumps(scrub(payload), sort_keys=True)


def wire(request_id: int, method: str, params: Dict[str, Any]) -> str:
    return json.dumps({"jsonrpc": "2.0", "id": request_id, "method": method,
                       "params": params}, sort_keys=True)


# -- request scripts -----------------------------------------------------------

def profile_script(targets: Sequence[Tuple[str, int]],
                   search_shapes: Optional[Sequence[str]] = None
                   ) -> List[Dict[str, Any]]:
    """The §VII task-1 script for one opened profile, plus a zoom.

    Groups come from :func:`repro.serve.loadgen.analyst_script`; the
    hover templates name Spark source lines, so each hover is pointed at
    a sampled line of the profile being browsed instead.  With
    ``search_shapes`` the searches cycle through those panes and the
    script keeps one search per shape (the pipelined workload needs
    searches that never supersede each other, because the select after a
    search names one of its matches).
    """
    groups = []
    hover = 0
    searches = 0
    for group in analyst_script("task1"):
        requests = []
        for method, template in group["requests"]:
            params = dict(template)
            if method == pvp.VIEW_HOVER:
                params["file"], params["line"] = targets[hover % len(targets)]
                hover += 1
            if method == pvp.VIEW_SEARCH and search_shapes is not None:
                if searches >= len(search_shapes):
                    requests = []
                    break
                params["shape"] = search_shapes[searches]
                searches += 1
            requests.append((method, params))
        if requests:
            groups.append({"step": group["step"], "burst": group["burst"],
                           "requests": requests})
    groups.append({"step": "zoom", "burst": False, "requests": [
        (pvp.VIEW_ZOOM, {"profileId": "$profile", "nodeRef": 0})]})
    return groups


def fill(params: Dict[str, Any], profile_id: int) -> Dict[str, Any]:
    return {k: (profile_id if v == "$profile" else v)
            for k, v in params.items()}


class PaneTracker:
    """Classifies view requests as building a pane or reading a built one."""

    def __init__(self) -> None:
        self._built = set()

    def kind(self, method: str, params: Dict[str, Any],
             profile: Optional[str] = None) -> Tuple[str, str]:
        """(metric kind, request class) for one request.

        Panes are told apart by ``profile`` (what the profile id stands
        for) when given, else by the profile id.
        """
        pid = profile if profile is not None else params.get("profileId")
        if method == pvp.VIEW_OPEN:
            return OPEN, method
        if method in (pvp.VIEW_DIFF, pvp.VIEW_AGGREGATE):
            return COMPARE, method
        if method in (pvp.VIEW_OPEN_QUERY, pvp.WATCH_REPORT):
            return QUERY, method
        if method == pvp.STORE_INGEST:
            return INGEST, method
        if method == pvp.VIEW_SHAPE:
            pane = ("shape", pid, params.get("shape"))
        elif method == pvp.VIEW_HOVER:
            pane = ("hover", pid)
        elif method == pvp.VIEW_SEARCH:
            pane = ("search", pid, params.get("shape", "top_down"))
        elif method == pvp.VIEW_ZOOM:
            pane = ("zoom", pid, params.get("nodeRef"))
        elif method.startswith("view/") and method != pvp.VIEW_CLOSE:
            return WARM, method + ":warm"
        else:
            return OTHER, method
        if pane in self._built:
            return WARM, method + ":warm"
        self._built.add(pane)
        return FIRST, method + ":first"


class Record:
    """One answered request."""

    __slots__ = ("rid", "method", "kind", "klass", "seconds", "ok",
                 "cancelled", "denied", "due", "phase", "probe")

    def __init__(self, rid: Any, method: str, kind: str, klass: str,
                 seconds: float, ok: bool, cancelled: bool = False,
                 denied: bool = False, due: float = 0.0,
                 phase: str = "") -> None:
        self.rid = rid
        self.method = method
        self.kind = kind
        self.klass = klass
        self.seconds = seconds
        self.ok = ok
        self.cancelled = cancelled
        self.denied = denied
        self.due = due
        self.phase = phase
        self.probe = 0.0

    @property
    def nominal(self) -> float:
        """The latency scaled to the machine's nominal speed (see
        :func:`speed_probe`); the raw latency when no probe was taken."""
        if not self.probe:
            return self.seconds
        return self.seconds * NOMINAL_PROBE_S / self.probe


class InProcessClient:
    """One IDE session driven through the transport-shared dispatch path."""

    def __init__(self, recorder=None) -> None:
        self.output: List[str] = []
        self.session = ViewerSession(sink=self._notify, session_id="stdio")
        self.dispatcher = dispatch_mod.Dispatcher(self.session,
                                                  log=io.StringIO())
        self.recorder = recorder
        self.panes = PaneTracker()
        self.records: List[Record] = []
        #: The replayable run: ("line", wire line), ("flush", store) and
        #: ("collect", "").
        self.steps: List[Tuple[str, str]] = []
        self.next_id = 0
        #: (time, speed probe) pairs, at most one per PROBE_EVERY_S.
        self.probes: List[Tuple[float, float]] = []
        speed_probe()  # the first probe in a process runs cold

    def _notify(self, method: str, params: Dict[str, Any]) -> None:
        self.output.append(pvp.Request(method=method, params=params)
                           .to_json())

    def send_line(self, line: str, method: str, params: Dict[str, Any]
                  ) -> Dict[str, Any]:
        kind, klass = self.panes.kind(method, params)
        self.steps.append(("line", line))
        rid = json.loads(line)["id"]
        self.maybe_probe()
        started_at = time.perf_counter()
        if self.recorder is not None:
            # The request span is stamped tightly around the round trip so
            # the recorder's own cost stays out of the request's time.
            span, token = self.recorder.open(
                "request", "stdio:%s" % rid, {"klass": klass})
            span[spans.START] = spans.clock()
            text = self._round_trip(line)
            end = spans.clock()
            self.recorder.close(span, token, end)
            seconds = (end - span[spans.START]) / 1e9
        else:
            started = time.perf_counter()
            text = self._round_trip(line)
            seconds = time.perf_counter() - started
        self.output.append(text)
        payload = json.loads(text)
        record = Record(rid, method, kind, klass, seconds,
                        ok="error" not in payload, due=started_at)
        self.records.append(record)
        return payload

    def maybe_probe(self) -> None:
        """Probe the machine's speed between requests, now and then.

        Not before every request: the probe's loop would evict the caches
        a burst of sub-millisecond requests runs warm in.
        """
        now = time.perf_counter()
        if not self.probes or now - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probes.append((now, speed_probe()))

    def finish(self) -> None:
        """Attach to every request the speed probed around it."""
        self.maybe_probe()
        attach_probes(self.records, self.probes)

    def _round_trip(self, line: str) -> str:
        request, error = dispatch_mod.parse_line(line)
        response = error if error is not None else \
            self.dispatcher.handle(request)
        return response.to_json()

    def request(self, method: str, params: Dict[str, Any]
                ) -> Dict[str, Any]:
        self.next_id += 1
        return self.send_line(wire(self.next_id, method, params), method,
                              params)

    def flush(self, store_root: str) -> float:
        """Flush a store's WAL to a segment (no PVP method exists for it)."""
        self.steps.append(("flush", store_root))
        started = time.perf_counter()
        self.session.store(store_root).flush()
        return time.perf_counter() - started

    def collect(self) -> None:
        """Run a full garbage collection between units of work (untimed).

        Full collections scan every live object, and the engine cache keeps
        the views of closed profiles alive, so when a collection lands
        would otherwise depend on everything the process did before.
        Collecting at the start of each unit makes the collections inside
        it depend on its own allocations; they are still timed.
        """
        self.steps.append(("collect", ""))
        gc.collect()

    def replay(self, steps: Iterable[Tuple[str, str]]) -> None:
        """Re-issue a recorded run request for request."""
        for kind, value in steps:
            if kind == "flush":
                self.flush(value)
                continue
            if kind == "collect":
                self.collect()
                continue
            payload = json.loads(value)
            self.next_id = payload["id"]
            self.send_line(value, payload["method"], payload["params"])

    def run_session(self, path: str, targets: Sequence[Tuple[str, int]]
                    ) -> Tuple[int, List[Record]]:
        """Open a profile and run the analyst script on it.

        Returns the profile id and the session's requests.
        """
        before = len(self.records)
        opened = self.request(pvp.VIEW_OPEN, {"path": path})
        pid = opened["result"]["profileId"]
        for group in profile_script(targets):
            for method, params in group["requests"]:
                self.request(method, fill(params, pid))
        return pid, self.records[before:]


#: The speed at which latencies are reported: the median
#: :func:`speed_probe` time while the benchmark ran on the 2-core virtual
#: machine it was written on.
NOMINAL_PROBE_S = 0.85e-3


#: How often the machine's speed is probed while requests run.
PROBE_EVERY_S = 0.05


#: Probes this close to a request, before or after, describe its speed.
PROBE_WINDOW_S = 0.5


def attach_probes(records: Iterable[Record],
                  probes: Sequence[Tuple[float, float]]) -> None:
    """Set each record's probe: the median probe within PROBE_WINDOW_S of
    the request, or the nearest one before and after it."""
    times = [t for t, _ in probes]
    for record in records:
        end = record.due + record.seconds
        lo = bisect.bisect_left(times, record.due - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, end + PROBE_WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), hi + 1
        near = [p for _, p in probes[lo:hi]]
        record.probe = statistics.median(near) if near else 0.0


def speed_probe() -> float:
    """Seconds a fixed interpreter workload takes right now.

    The virtual machines this benchmark runs on change speed by up to half
    over tens of seconds (a pure-Python loop measured 29 to 44 ms for the
    same work within one minute), which would swamp any regression bound.
    Each request is therefore bracketed by this probe, and the end-to-end
    latencies are reported scaled by ``NOMINAL_PROBE_S / probe``: the
    latency the request would have had at the nominal speed.  The raw
    latencies are kept in the report.
    """
    runs = []
    for _ in range(3):
        started = time.perf_counter()
        table: Dict[int, int] = {}
        total = 0
        for i in range(6000):
            total += i * i
            table[i & 255] = total
        runs.append(time.perf_counter() - started)
    return statistics.median(runs)


# -- statistics ----------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def trimmed_mean(values: Sequence[float], share: float = 0.1) -> float:
    """The mean of the values left when ``share`` of them is dropped from
    each end.

    For first views, which span four orders of magnitude: a zoom takes
    0.1 ms in process and 0.5 ms over the socket, a first hover on a
    medium profile seconds.  The median jumps between the clusters, like
    the warm requests' (see :func:`geometric_mean`); a geometric mean
    grew nearly threefold when a garbage collection landed in one of
    three 0.1 ms zooms; the plain mean moves with each collection that
    lands in a first hover.
    """
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return mean(ordered[cut:len(ordered) - cut])


def geometric_mean(values: Sequence[float]) -> float:
    """For latencies that fall in clusters a fixed script always produces.

    Warm requests cluster around a cached shape switch (tens of
    microseconds), a hover or select (around 0.1 ms) and an uncached
    search (around 0.1 s).  The median of such a mix sits in a gap between
    two clusters and jumps between them from run to run; the geometric
    mean moves with every cluster.
    """
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values: Sequence[float], beyond: int = 10
         ) -> Tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with at
    least ``beyond`` samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    index = max(0, n - 1 - beyond)
    return ordered[index], 100.0 * (index + 1) / n, n


def by_kind(records: Iterable[Record], nominal: bool = True
            ) -> Dict[str, List[float]]:
    """Latencies of answered, executed requests per metric kind."""
    out: Dict[str, List[float]] = defaultdict(list)
    for record in records:
        if record.ok and not record.cancelled:
            out[record.kind].append(record.nominal if nominal
                                    else record.seconds)
    return out
