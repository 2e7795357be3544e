"""The three workloads: two in-process analysts and a pipelined socket load.

* ``analyst_pprof`` -- one closed-loop analyst opens distinct-seed
  medium-tier pprof profiles (the paper's 1 MB point), runs the §VII
  script on each, then diffs and aggregates the last consecutive pair.  Every
  request is a cache miss or a first touch of the columnar path.
* ``formats_store`` -- the same kind of profiles arrive as folded stacks
  and EasyView JSON (object-tree converters), are browsed, ingested into
  a ProfStore, flushed, merged back with ``view/openQuery`` and ranked
  with ``watch/report``.
* ``serve_pipelined`` -- closed-loop socket sessions on small-tier
  profiles, then two socket connections send small-tier scripts on a
  seeded Poisson schedule at each rate of a fixed ladder, without
  waiting for replies.

Each workload has a ``prepare`` step (the repeatable part of set-up,
which writes every input the run reads) and a ``run`` step sized by the
run's seconds.  Both in-process workloads
record their requests so the traced pass and the fresh-process replay
can repeat them exactly.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.ide import protocol as pvp

import drive
import inputs as gen

MEDIUM, SMALL = "medium", "small"


@dataclass
class Context:
    seed: int
    seconds: float
    quick: bool
    src: str           # the program's sources
    work: str          # this run's scratch directory inside the checkout

    def tier(self, normal: str) -> str:
        return SMALL if self.quick else normal


@dataclass
class Connection:
    """What the correctness gate needs from one client connection."""

    lines: List[str]
    output: List[str]                      # every line received
    skipped: set = field(default_factory=set)  # ids answered CANCELLED


@dataclass
class Result:
    records: List[drive.Record] = field(default_factory=list)
    sessions: List[List[drive.Record]] = field(default_factory=list)
    connections: List[Connection] = field(default_factory=list)
    totals: List[Tuple[str, Dict[str, float], Dict[str, float]]] = field(
        default_factory=list)
    steps: List[Tuple[str, str]] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)
    ingest_bytes: int = 0
    ingest_seconds: float = 0.0
    flush_seconds: float = 0.0
    peak_rss_mb: float = 0.0


def profile_totals(profile) -> Dict[str, float]:
    """Exact per-metric sums over every context of an opened profile."""
    col = profile.columnar()
    if col is not None:
        values = [float(v) for v in col.totals()]
    else:
        values = [0.0] * len(profile.schema)
        for node in profile.nodes():
            for index in range(len(values)):
                values[index] += node.exclusive(index)
    return {metric.name: values[index]
            for index, metric in enumerate(profile.schema)}


def _check_totals(result: Result, client: drive.InProcessClient, pid: int,
                  source: gen.Input) -> None:
    profile = client.session.get(pid).profile
    result.totals.append((os.path.basename(source.path), source.totals,
                          profile_totals(profile)))


def work_units(ctx: Context, unit_seconds: float) -> int:
    """How many units of work fill the run's seconds.

    The in-process workloads do a fixed amount of work per run, derived
    from ``--seconds`` and the time one unit took on the 2-core machine
    the benchmark was written on, rather than looping until a deadline.
    A deadline would let a faster program do more units per run, and the
    heap those extra profiles leave behind slows every later request, so
    two commits would not be measured on the same work.
    """
    if ctx.quick:
        return 1
    return max(1, int(round(ctx.seconds / unit_seconds)))


#: Seconds one analyst session took (medium tier), with its share of the
#: closing diff and aggregate.
ANALYST_SESSION_S = 6.5
#: Seconds one formats_store cycle took (small tier), replay included.
FORMATS_CYCLE_S = 5.0


# -- analyst_pprof ---------------------------------------------------------------

def prepare_analyst(ctx: Context, directory: str) -> List[gen.Input]:
    """One medium-tier pprof file per session."""
    sessions = max(2, work_units(ctx, ANALYST_SESSION_S))
    seeds = gen.derive_seeds(ctx.seed, sessions, "analyst")
    return [gen.write_pprof(directory, ctx.tier(MEDIUM), seed, "p%d" % k)
            for k, seed in enumerate(seeds)]


def run_analyst(ctx: Context, prepared: List[gen.Input]) -> Result:
    """Sessions on distinct profiles, then diff and aggregate the last pair.

    Profiles older than the pair being compared are closed, as an analyst
    closes tabs.  Each session starts from a collected heap (see
    ``InProcessClient.collect``).
    """
    result = Result()
    client = drive.InProcessClient()
    opened: List[int] = []
    for source in prepared:
        if len(opened) >= 2:
            client.request(pvp.VIEW_CLOSE, {"profileId": opened[-2]})
        client.collect()
        pid, session = client.run_session(source.path,
                                          source.hover_targets)
        result.sessions.append(session)
        _check_totals(result, client, pid, source)
        opened.append(pid)
    client.collect()
    client.request(pvp.VIEW_DIFF, {"baselineId": opened[-2],
                                   "treatmentId": opened[-1]})
    client.request(pvp.VIEW_AGGREGATE, {"profileIds": opened[-2:]})
    client.finish()
    result.records = client.records
    result.steps = client.steps
    result.connections = [Connection(
        [line for kind, line in client.steps if kind == "line"],
        client.output)]
    return result


# -- formats_store ----------------------------------------------------------------

#: Object-format profiles are several times slower to view, store and
#: merge than columnar pprof ones: one medium-tier cycle (browse two
#: profiles, ingest, two merges, a watch tick) takes about 50 s on a
#: 2-core machine, which would not leave room for several runs, so this
#: workload reads small-tier corpus profiles.
FORMATS_TIER = SMALL

STORE = "store"   # relative: the run, the traced pass and the replay each
#                   work in their own directory with their own store


@dataclass
class FormatsInputs:
    baseline: gen.Input                            # pprof, service "feed"
    cycles: List[Tuple[gen.Input, gen.Input]]      # (folded, JSON) each


def prepare_formats(ctx: Context, directory: str) -> FormatsInputs:
    cycles = work_units(ctx, FORMATS_CYCLE_S)
    seeds = gen.derive_seeds(ctx.seed, 2 * cycles, "formats")
    return FormatsInputs(
        baseline=gen.write_pprof(directory, FORMATS_TIER,
                                 gen.derive_seeds(ctx.seed, 1,
                                                  "baseline")[0],
                                 "baseline"),
        cycles=[(gen.write_folded(directory, FORMATS_TIER, seeds[2 * k],
                                  "f%d" % k),
                 gen.write_json(directory, FORMATS_TIER, seeds[2 * k + 1],
                                "j%d" % k, k + 1))
                for k in range(cycles)])


def run_formats(ctx: Context, prepared: FormatsInputs) -> Result:
    """Browse object-format profiles, then store them and read them back.

    The first capture of the ``feed`` service is a pprof file stamped at
    the corpus base time; each cycle's JSON capture is one minute later
    than the previous, so ``watch/report`` always has a baseline window.
    """
    result = Result()
    client = drive.InProcessClient()

    def ingest(source: gen.Input, service: str, cycle: str) -> None:
        client.request(pvp.STORE_INGEST, {
            "store": STORE, "path": source.path, "service": service,
            "labels": {"cycle": cycle, "format": source.fmt}})
        result.ingest_bytes += source.raw_bytes
        result.ingest_seconds += client.records[-1].seconds

    ingest(prepared.baseline, "feed", "base")
    for k, (folded, captured) in enumerate(prepared.cycles):
        opened = []
        client.collect()
        for source in (folded, captured):
            pid, session = client.run_session(source.path,
                                              source.hover_targets)
            result.sessions.append(session)
            _check_totals(result, client, pid, source)
            opened.append(pid)
        ingest(folded, "bench", str(k))
        ingest(captured, "feed", str(k))
        result.flush_seconds += client.flush(STORE)
        for _ in range(2):   # first merge, then the same query again
            merged = client.request(pvp.VIEW_OPEN_QUERY, {
                "store": STORE, "query": "label.cycle=%d" % k})
            opened.append(merged["result"]["profileId"])
        client.request(pvp.WATCH_REPORT, {
            "store": STORE, "query": "service=feed", "window": "60s",
            "nowNanos": captured.time_nanos})
        for done in opened:
            client.request(pvp.VIEW_CLOSE, {"profileId": done})
    queries = [r.seconds for r in client.records
               if r.method == pvp.VIEW_OPEN_QUERY]
    result.extra["open_query_first_s"] = drive.median(queries[0::2])
    result.extra["open_query_repeat_s"] = drive.median(queries[1::2])
    result.extra["store_bytes_written"] = _tree_bytes(STORE)
    client.finish()
    result.records = client.records
    result.steps = client.steps
    result.connections = [Connection(
        [line for kind, line in client.steps if kind == "line"],
        client.output)]
    return result


def _tree_bytes(directory: str) -> int:
    total = 0
    for base, _, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


# -- serve_pipelined --------------------------------------------------------------

#: Request rates (both connections together, requests per second).  The
#: ladder spans below and above the server's capacity on this workload.
LADDER = (10, 20, 40, 80, 160)
QUICK_LADDER = (10, 20)
#: The base rate keeps the server about a tenth busy, so its latencies are
#: service times rather than queueing, which at half load varied by a
#: factor of two between seeds.
BASE_RATE = 10
#: Share of the run's seconds the ladder takes; the closed-loop sessions
#: before it take about the rest.
LADDER_SHARE = 0.4
#: Share of the ladder spent at the base rate; the other rungs split the rest.
BASE_SHARE = 0.75
#: The §VI interactive budget the capacity rung must meet.
BUDGET_S = 1.0
#: Searches per pass, one per pane so none supersedes another.
SEARCH_SHAPES = ("top_down", "bottom_up", "flat")
#: The phase of closed-loop sessions that runs before the ladder.
CLOSED = "closed"
#: Closed-loop sessions per run: one per this many seconds of the run.
#: A small-tier session takes about 0.4 s, so at 20 s the phase takes
#: about 10 s.
CLOSED_SESSION_S = 0.8


def ladder(ctx: Context) -> Tuple[int, ...]:
    return QUICK_LADDER if ctx.quick else LADDER


#: Profile pairs per rung.  A connection's script passes alternate between
#: pair k's shared profile and its own profile of pair k, so the passes a
#: base-rate run completes (one or two per connection) each open a
#: profile that connection has not browsed before.  Connection 0 takes the
#: shared profile first and connection 1 second, so connection 1's shared
#: passes find the panes connection 0 built in the engine cache, in every
#: run rather than whenever the schedule happens to order them so.
PAIRS_PER_RUNG = 2


def rung_files(ctx: Context, directory: str) -> List[List[List[gen.Input]]]:
    """Per rung, per connection: the profiles its passes open, in order."""
    rates = ladder(ctx)
    seeds = iter(gen.derive_seeds(ctx.seed, 3 * PAIRS_PER_RUNG * len(rates),
                                  "serve"))
    out = []
    for r in range(len(rates)):
        passes: List[List[gen.Input]] = [[], []]
        for k in range(PAIRS_PER_RUNG):
            shared, own0, own1 = (
                gen.write_pprof(directory, SMALL, next(seeds),
                                "s%d_%d_%s" % (r, k, name))
                for name in ("shared", "c0", "c1"))
            passes[0] += [shared, own0]
            passes[1] += [own1, shared]
        out.append(passes)
    return out


class ServerProcess:
    """The socket server in its own process (see ``serve_child.py``)."""

    def __init__(self, ctx: Context, stats_path: str, trace: bool) -> None:
        self.stats_path = stats_path
        command = [sys.executable,
                   os.path.join(os.path.dirname(__file__), "serve_child.py"),
                   "--src", ctx.src, "--stats", stats_path]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(command, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE,
                                        cwd=ctx.work)
        line = self.process.stdout.readline().decode().split()
        if len(line) != 2 or line[0] != "PORT":
            self.stop()
            raise RuntimeError("serve child failed to start")
        self.port = int(line[1])

    def collect(self) -> None:
        """Run a full garbage collection in the server (untimed); see
        ``InProcessClient.collect``."""
        self.process.stdin.write(b"collect\n")
        self.process.stdin.flush()
        if self.process.stdout.readline() != b"COLLECTED\n":
            raise RuntimeError("serve child did not collect")

    def kill(self) -> None:
        """Stop the child without a report (error paths)."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()

    def stop(self) -> Dict[str, Any]:
        """Close stdin (the stop signal), wait, return the child's report."""
        try:
            self.process.stdin.close()
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise RuntimeError("serve child did not stop")
        finally:
            self.process.stdout.close()
        if self.process.returncode != 0 or not os.path.exists(
                self.stats_path):
            raise RuntimeError("serve child exited with %s"
                               % self.process.returncode)
        with open(self.stats_path, encoding="utf-8") as handle:
            return json.load(handle)


class LoadConnection:
    """One IDE connection: on the ladder it sends on a schedule without
    waiting for replies; in closed-loop sessions, request by request."""

    def __init__(self, index: int, reader, writer,
                 panes: drive.PaneTracker) -> None:
        self.index = index
        self.reader = reader
        self.writer = writer
        self.lines: List[str] = []
        self.output: List[str] = []
        self.pending: Dict[int, Dict[str, Any]] = {}
        self.done: List[Dict[str, Any]] = []
        self.cancelled: set = set()
        #: Shared by both connections and keyed by profile path: a pane the
        #: other connection already built is served from the engine cache.
        self.panes = panes
        self.replied = asyncio.Event()
        self.next_id = 0
        self.profiles = 0

    async def read_loop(self, clock) -> None:
        while True:
            raw = await self.reader.readline()
            if not raw:
                return
            now = clock()
            payload = json.loads(raw.decode("utf-8"))
            self.output.append(raw.decode("utf-8").rstrip("\n"))
            if "method" in payload:
                continue
            entry = self.pending.pop(payload.get("id"), None)
            if entry is None:
                continue
            error = payload.get("error")
            entry["received"] = now
            entry["cancelled"] = bool(error) and \
                error.get("code") == pvp.CANCELLED
            entry["denied"] = bool(error) and error.get("code") == pvp.DENIED
            entry["ok"] = error is None or entry["cancelled"]
            if entry["cancelled"]:
                self.cancelled.add(entry["id"])
                entry["kind"] = drive.OTHER
                entry["klass"] = entry["method"] + ":superseded"
            else:
                # Classified as it completes: a superseded request built
                # nothing, so the burst member that ran builds the pane.
                entry["kind"], entry["klass"] = self.panes.kind(
                    entry["method"], entry["params"], entry["path"])
            self.done.append(entry)
            self.replied.set()

    async def send_rung(self, rung: int, rate: float, start: float,
                        end: float, files: List[gen.Input],
                        rng: random.Random, clock) -> None:
        """Send scripted passes over ``files`` until the rung ends."""
        due = start
        pass_index = 0
        while True:
            source = files[pass_index % len(files)]
            pid = self.profiles + 1
            plan = [(pvp.VIEW_OPEN, {"path": source.path}, False)]
            for group in drive.profile_script(source.hover_targets,
                                              SEARCH_SHAPES):
                for position, (method, params) in enumerate(
                        group["requests"]):
                    plan.append((method, drive.fill(params, pid),
                                 group["burst"] and position > 0))
            for method, params, follows in plan:
                if not follows:
                    due += rng.expovariate(rate)
                if due >= end:
                    return
                delay = due - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                if method == pvp.VIEW_OPEN:
                    self.profiles += 1
                self.send(method, params, due, clock(), rung,
                          (rung, pass_index), source.path)
            pass_index += 1

    async def run_sessions(self, files: List[gen.Input], clock,
                           probes: List[Tuple[float, float]],
                           server: ServerProcess) -> None:
        """One closed-loop scripted session per file: each request is sent
        when the previous one has been answered, and the profile is closed
        at the end, as an analyst closes a tab.

        Each session starts from a collected server heap, as each unit of
        the in-process workloads does.  The machine's speed is probed
        between requests, at most every PROBE_EVERY_S, so no probe delays
        the reading of a reply.
        """
        for k, source in enumerate(files):
            server.collect()
            self.profiles += 1
            plan = [(pvp.VIEW_OPEN, {"path": source.path})] + [
                (method, drive.fill(params, self.profiles))
                for group in drive.profile_script(source.hover_targets,
                                                  SEARCH_SHAPES)
                for method, params in group["requests"]] + [
                (pvp.VIEW_CLOSE, {"profileId": self.profiles})]
            for method, params in plan:
                if not probes or clock() - probes[-1][0] >= \
                        drive.PROBE_EVERY_S:
                    probes.append((clock(), drive.speed_probe()))
                self.replied.clear()
                now = clock()
                self.send(method, params, now, now, CLOSED, (CLOSED, k),
                          source.path)
                while self.pending:
                    await asyncio.wait_for(self.replied.wait(), 60.0)
                    self.replied.clear()

    def send(self, method: str, params: Dict[str, Any], due: float,
             now: float, rung: int, pass_key, path: str) -> None:
        self.next_id += 1
        line = drive.wire(self.next_id, method, params)
        self.lines.append(line)
        self.pending[self.next_id] = {
            "id": self.next_id, "method": method, "params": params,
            "path": path, "due": due, "sent": now, "rung": rung,
            "pass": pass_key}
        self.writer.write((line + "\n").encode("utf-8"))


def pin(pids: List[int], cpus) -> None:
    """Set the CPUs every thread of each process may run on."""
    for pid in pids:
        for tid in os.listdir("/proc/%d/task" % pid):
            try:
                os.sched_setaffinity(int(tid), cpus)
            except ProcessLookupError:   # the thread has just ended
                pass


async def _drive_ladder(server: ServerProcess, inputs: ServeInputs,
                        rates, durations, seed: int
                        ) -> Tuple[List[LoadConnection], List[Dict],
                                   List[Tuple[float, float]]]:
    """The closed-loop sessions on their own connection, then the ladder
    on two fresh ones; returns every connection, the closed one last."""
    loop = asyncio.get_running_loop()
    clock = loop.time
    probes: List[Tuple[float, float]] = []
    stop = asyncio.Event()

    async def probe_loop() -> None:
        # On the open loop the client is idle between sends; probing the
        # machine's speed every 50 ms costs it about 2 ms each time.
        while not stop.is_set():
            probes.append((clock(), drive.speed_probe()))
            try:
                await asyncio.wait_for(stop.wait(), 0.05)
            except asyncio.TimeoutError:
                pass
    drive.speed_probe()  # the first probe in a process runs cold
    prober = None
    rungs = []
    connections: List[LoadConnection] = []
    closed: Optional[LoadConnection] = None
    readers = []

    async def connect(index: int, panes: drive.PaneTracker) -> LoadConnection:
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        connection = LoadConnection(index, reader, writer, panes)
        readers.append(asyncio.ensure_future(connection.read_loop(clock)))
        return connection
    try:
        if inputs.closed:
            # With one request in flight, client and server never run at
            # once.  On one core the reply wakes the client without a
            # cross-core wake-up, which on a shared host waits for the
            # hypervisor: such waits doubled the warm latencies of some
            # runs, and the speed probe, which never sleeps, did not see
            # them.  On one core the probe sees what the requests see.
            cpus = os.sched_getaffinity(0)
            pids = [os.getpid(), server.process.pid]
            pin(pids, {min(cpus)})
            try:
                closed = await connect(2, drive.PaneTracker())
                await closed.run_sessions(inputs.closed, clock, probes,
                                          server)
                closed.writer.close()
            finally:
                pin(pids, cpus)
        prober = asyncio.ensure_future(probe_loop())
        panes = drive.PaneTracker()
        connections = [await connect(index, panes) for index in range(2)]
        for rung, (rate, duration) in enumerate(zip(rates, durations)):
            start = clock() + 0.05
            end = start + duration
            await asyncio.gather(*(
                c.send_rung(rung, rate / 2.0, start, end,
                            inputs.rungs[rung][c.index],
                            random.Random("%d:%d:%d" % (seed, rung, c.index)),
                            clock)
                for c in connections))
            for c in connections:
                await c.writer.drain()
            deadline = clock() + 60.0
            while any(c.pending for c in connections) and \
                    clock() < deadline:
                await asyncio.sleep(0.005)
            if any(c.pending for c in connections):
                raise RuntimeError("rung %d did not drain" % rung)
            last = max((e["received"] for c in connections for e in c.done
                        if e["rung"] == rung), default=end)
            rungs.append({"rate": rate, "seconds": duration,
                          "drain_s": max(0.0, last - end)})
    finally:
        stop.set()
        if prober is not None:
            await prober
        for c in connections + ([closed] if closed is not None else []):
            c.writer.close()
        await asyncio.wait_for(asyncio.gather(*readers), 30.0)
    if closed is not None:
        connections.append(closed)
    return connections, rungs, probes


@dataclass
class ServeInputs:
    rungs: List[List[List[gen.Input]]]   # see rung_files
    closed: List[gen.Input]              # one closed-loop session each

    def all(self) -> List[gen.Input]:
        return self.closed + [source for rung in self.rungs
                              for passes in rung for source in passes]


def prepare_serve(ctx: Context, directory: str):
    seeds = gen.derive_seeds(ctx.seed, max(2, work_units(
        ctx, CLOSED_SESSION_S)), "serve-closed")
    inputs = ServeInputs(
        rungs=rung_files(ctx, directory),
        closed=[gen.write_pprof(directory, SMALL, seed, "closed%d" % k)
                for k, seed in enumerate(seeds)])
    server = ServerProcess(ctx, os.path.join(directory, "server.json"),
                           trace=False)
    return inputs, server


def ladder_durations(seconds: float, rates) -> List[float]:
    seconds *= LADDER_SHARE
    others = len(rates) - 1
    base = seconds * (BASE_SHARE if others else 1.0)
    rest = (seconds - base) / others if others else 0.0
    return [base if rate == BASE_RATE else rest for rate in rates]


def run_ladder(ctx: Context, server: ServerProcess, inputs: ServeInputs,
               rates, durations
               ) -> Tuple[List[LoadConnection], List[Dict], List]:
    return asyncio.run(_drive_ladder(server, inputs, rates, durations,
                                     ctx.seed))


def serve_result(connections: List[LoadConnection], rungs: List[Dict],
                 report: Dict[str, Any],
                 probes: List[Tuple[float, float]]) -> Result:
    """Figures per rung and at the base rate; the end-to-end latencies and
    sessions from the closed-loop phase."""
    result = Result()
    for c in connections:
        result.connections.append(Connection(c.lines, c.output,
                                             set(c.cancelled)))
        for entry in c.done:
            record = drive.Record(
                "c%d:%d" % (c.index, entry["id"]), entry["method"],
                entry["kind"], entry["klass"],
                entry["received"] - entry["due"], entry["ok"],
                entry["cancelled"], entry["denied"], entry["due"],
                CLOSED if entry["rung"] == CLOSED
                else "rung%d" % entry["rung"])
            result.records.append(record)
            entry["record"] = record
            entry["late"] = entry["sent"] - entry["due"]
    drive.attach_probes(result.records, probes)
    ladder = []
    for rung, info in enumerate(rungs):
        entries = [e for c in connections for e in c.done
                   if e["rung"] == rung]
        executed = [e["received"] - e["due"] for e in entries
                    if e["ok"] and not e["cancelled"]]
        value, pct, n = drive.tail(executed)
        failed = sum(1 for e in entries if not e["ok"])
        denied = sum(1 for e in entries if e["denied"])
        info = dict(info)
        info.update({
            "attempted": len(entries),
            "achieved_rps": len(entries) / info["seconds"],
            "p50_ms": 1e3 * drive.median(executed),
            "tail_ms": 1e3 * value, "tail_pct": pct, "tail_n": n,
            "cancelled": sum(1 for e in entries if e["cancelled"]),
            "denied": denied, "failed": failed,
            "gen_late_ms_p50": 1e3 * drive.median([e["late"]
                                                   for e in entries]),
            "gen_late_ms_max": 1e3 * max((e["late"] for e in entries),
                                         default=0.0),
        })
        info["meets_budget"] = (n > 0 and value <= BUDGET_S and denied == 0
                                and info["drain_s"] <= BUDGET_S)
        ladder.append(info)
    result.extra["ladder"] = ladder
    base_index = next(i for i, r in enumerate(ladder)
                      if r["rate"] == BASE_RATE) if any(
        r["rate"] == BASE_RATE for r in ladder) else 0
    base = ladder[base_index]
    result.extra["base"] = base
    capacity = 0
    for rung in ladder:
        if rung["meets_budget"]:
            capacity = rung["rate"]
    result.extra["capacity_rps"] = capacity
    # The end-to-end latencies and sessions come from the closed-loop
    # phase, where each request waits for nothing but its own service.  On
    # the open loop a request's latency swings with whatever the other
    # connection queued ahead of it: the base rung's median first-view
    # latency spread by a quarter between runs.  The ladder's figures stay
    # in the report (serve_p50_ms, serve_tail_ms, serve_capacity_rps).
    passes: Dict[Any, List[drive.Record]] = {}
    for c in connections:
        for entry in c.done:
            if entry["rung"] == CLOSED:
                passes.setdefault(entry["pass"], []).append(entry["record"])
    result.sessions = list(passes.values())
    result.extra["measured_phase"] = (CLOSED if passes
                                      else "rung%d" % base_index)
    result.peak_rss_mb = report["peak_rss_mb"]
    result.extra["server"] = report["stats"]
    result.extra["queue_seconds"] = report["queue_seconds"]
    return result
