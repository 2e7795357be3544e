"""Tests for the text-format converters: collapsed, perf, gprof, TAU."""

import pytest

from repro.converters.collapsed import parse as parse_collapsed, serialize
from repro.converters.gprof import parse as parse_gprof
from repro.converters.perf_script import parse as parse_perf
from repro.converters.tau import parse as parse_tau
from repro.errors import FormatError


class TestCollapsed:
    def test_basic_stacks(self):
        profile = parse_collapsed(b"main;compute;hot 400\nmain;io 100\n")
        assert profile.total("samples") == 500
        hot = profile.find_by_name("hot")[0]
        assert [f.name for f in hot.call_path()] == ["main", "compute",
                                                     "hot"]

    def test_duplicate_stacks_accumulate(self):
        profile = parse_collapsed(b"a;b 10\na;b 5\n")
        assert profile.find_by_name("b")[0].exclusive(0) == 15

    def test_comments_and_blanks_skipped(self):
        profile = parse_collapsed(b"# comment\n\na;b 3\n")
        assert profile.total("samples") == 3

    def test_module_backtick_syntax(self):
        profile = parse_collapsed(b"libc`malloc;libc`brk 7\n")
        brk = profile.find_by_name("brk")[0]
        assert brk.frame.module == "libc"

    def test_file_line_suffix_syntax(self):
        profile = parse_collapsed(b"main (app.py:12);f (app.py:30) 2\n")
        f = profile.find_by_name("f")[0]
        assert f.frame.file == "app.py" and f.frame.line == 30

    def test_fractional_counts(self):
        profile = parse_collapsed(b"a;b 1.5\n")
        assert profile.total("samples") == 1.5

    def test_missing_count_rejected(self):
        with pytest.raises(FormatError, match="non-numeric|no sample"):
            parse_collapsed(b"just;a;stack\n")

    def test_empty_input_rejected(self):
        with pytest.raises(FormatError):
            parse_collapsed(b"# nothing here\n")

    def test_serialize_roundtrip(self, simple_profile):
        text = serialize(simple_profile)
        back = parse_collapsed(text.encode())
        # Totals survive (attribution is name-only in folded format).
        assert back.total("samples") == 1000.0

    def test_counts_written_exactly(self):
        from repro.converters.collapsed import _sniff
        for count in (13460610.0, 1e21, 0.1, 2.5e-07):
            text = serialize(parse_collapsed(b"main;work %r\n" % count))
            if count.is_integer():
                assert text == "main;work %d\n" % count
            assert _sniff(text.encode(), "x.folded")
            assert parse_collapsed(text.encode()).total("samples") == count

    def test_exported_medium_profile_reopens(self, tmp_path):
        from repro.converters import pprof
        from repro.ide import protocol as pvp
        from repro.ide.session import ViewerSession
        from repro.profilers.corpus import generate_bytes, tier
        source = pprof.parse(generate_bytes(tier("medium"), compress=False))
        path = tmp_path / "medium.folded"
        path.write_text(serialize(source))
        session = ViewerSession()
        response = session.handle(pvp.Request(
            method=pvp.VIEW_OPEN, id=1, params={"path": str(path)}))
        assert response.ok, response.error
        reopened = session._profiles[response.result["profileId"]].profile
        assert reopened.meta.tool == "collapsed"
        assert (reopened.total("samples")
                == source.total(source.schema[0].name))


class TestPerfScript:
    SAMPLE = (b"prog 1234 100.5: 250000 cycles:\n"
              b"\tffffffff81a0 do_syscall_64 ([kernel.kallsyms])\n"
              b"\t000055d2b31 compute+0x1f (/usr/bin/prog)\n"
              b"\t000055d2a10 main+0x40 (/usr/bin/prog)\n"
              b"\n"
              b"prog 1234 100.6: 250000 cycles:\n"
              b"\t000055d2b31 compute+0x1f (/usr/bin/prog)\n"
              b"\t000055d2a10 main+0x40 (/usr/bin/prog)\n")

    def test_stacks_and_periods(self):
        profile = parse_perf(self.SAMPLE)
        assert profile.total("cycles") == 500000
        syscall = profile.find_by_name("do_syscall_64")[0]
        path = [f.name for f in syscall.call_path()]
        assert path == ["main", "compute", "do_syscall_64"]

    def test_module_stripped_to_basename(self):
        profile = parse_perf(self.SAMPLE)
        main = profile.find_by_name("main")[0]
        assert main.frame.module == "prog"

    def test_multiple_events_become_columns(self):
        data = (b"p 1 1.0: 100 cycles:\n\tdead main (/bin/p)\n\n"
                b"p 1 1.1: 7 cache-misses:\n\tdead main (/bin/p)\n")
        profile = parse_perf(data)
        assert set(profile.schema.names()) == {"cycles", "cache-misses"}
        assert profile.total("cache-misses") == 7

    def test_unknown_symbol_uses_address(self):
        data = b"p 1 1.0: 5 cycles:\n\tdeadbeef [unknown] (/bin/p)\n"
        profile = parse_perf(data)
        assert profile.find_by_name("0xdeadbeef")

    def test_no_samples_rejected(self):
        with pytest.raises(FormatError):
            parse_perf(b"random text that is not perf output\n")


class TestGprof:
    REPORT = (b"Flat profile:\n\n"
              b"Each sample counts as 0.01 seconds.\n"
              b"  %   cumulative   self              self     total\n"
              b" time   seconds   seconds    calls  ms/call  ms/call  name\n"
              b" 60.00      0.06     0.06     100     0.60     0.60  hot\n"
              b" 40.00      0.10     0.04      10     4.00     4.00  warm\n"
              b"\n"
              b"Call graph\n\n"
              b"index % time    self  children    called     name\n"
              b"                0.06    0.00     100/100         main [2]\n"
              b"[1]     60.0    0.06    0.00     100         hot [1]\n"
              b"-----------------------------------------------\n")

    def test_totals_not_double_counted(self):
        # hot's self time appears in both the flat section and the call
        # graph's caller attribution; it must be counted exactly once.
        profile = parse_gprof(self.REPORT)
        assert profile.total("self_time") == pytest.approx(0.10)

    def test_call_graph_two_level_paths(self):
        profile = parse_gprof(self.REPORT)
        nested = [n for n in profile.find_by_name("hot") if n.depth() == 2]
        assert nested
        assert nested[0].parent.frame.name == "main"
        assert nested[0].exclusive(0) == pytest.approx(0.06)

    def test_unattributed_functions_stay_flat(self):
        profile = parse_gprof(self.REPORT)
        warm = profile.find_by_name("warm")
        assert len(warm) == 1 and warm[0].depth() == 1
        assert warm[0].exclusive(0) == pytest.approx(0.04)

    def test_missing_flat_section_rejected(self):
        with pytest.raises(FormatError):
            parse_gprof(b"no gprof content")


class TestTau:
    PROFILE = (b"3 templated_functions_MULTI_TIME\n"
               b"# Name Calls Subrs Excl Incl ProfileCalls\n"
               b'"main" 1 2 1000 5000 0\n'
               b'"main => compute" 10 5 3000 4000 0\n'
               b'"main => compute => kernel" 50 0 1000 1000 0\n')

    def test_callpath_timers(self):
        profile = parse_tau(self.PROFILE)
        kernel = profile.find_by_name("kernel")[0]
        assert [f.name for f in kernel.call_path()] == \
            ["main", "compute", "kernel"]
        assert kernel.exclusive(0) == 1000

    def test_total_counts_each_exclusive_once(self):
        profile = parse_tau(self.PROFILE)
        assert profile.total("templated_functions_MULTI_TIME") == 5000

    def test_flat_leaf_timer_skipped_when_callpath_exists(self):
        data = (b"2 TIME\n"
                b'"compute" 10 0 3000 3000 0\n'
                b'"main => compute" 10 0 3000 3000 0\n')
        profile = parse_tau(data)
        assert profile.total("TIME") == 3000

    def test_source_location_syntax(self):
        data = (b"1 TIME\n"
                b'"work [{src/app.c} {42,1}-{60,1}]" 1 0 100 100 0\n')
        profile = parse_tau(data)
        work = profile.find_by_name("work")[0]
        assert work.frame.file == "src/app.c"
        assert work.frame.line == 42

    def test_calls_column(self):
        profile = parse_tau(self.PROFILE)
        kernel = profile.find_by_name("kernel")[0]
        assert kernel.exclusive(1) == 50

    def test_bad_header_rejected(self):
        with pytest.raises(FormatError):
            parse_tau(b"not a tau profile\n")

    def test_no_rows_rejected(self):
        with pytest.raises(FormatError):
            parse_tau(b"1 TIME\n# Name Calls\n")


class TestCallgrind:
    SAMPLE = (b"# callgrind format\n"
              b"version: 1\n"
              b"creator: callgrind-3.19\n"
              b"events: Ir Dr\n"
              b"\n"
              b"ob=(1) /usr/bin/app\n"
              b"fl=(1) app.c\n"
              b"fn=(1) main\n"
              b"10 100 20\n"
              b"+2 50 5\n"
              b"cfn=(2) compute\n"
              b"calls=3 20\n"
              b"12 900 80\n"
              b"\n"
              b"fn=(2)\n"
              b"fl=(1)\n"
              b"20 800 70\n"
              b"* 100 10\n")

    def parse(self):
        from repro.converters.callgrind import parse as parse_callgrind
        return parse_callgrind(self.SAMPLE)

    def test_events_become_metrics(self):
        profile = self.parse()
        assert {"Ir", "Dr", "calls"} <= set(profile.schema.names())

    def test_self_costs_counted_once(self):
        profile = self.parse()
        # main: 100 + 50; compute: 800 + 100 — call-edge costs excluded.
        assert profile.total("Ir") == 1050.0
        assert profile.total("Dr") == 105.0

    def test_name_compression_resolves(self):
        profile = self.parse()
        assert profile.find_by_name("main")
        compute = profile.find_by_name("compute")
        # fn=(2) back-reference resolved to "compute".
        assert compute

    def test_subpositions(self):
        profile = self.parse()
        lines = {n.frame.line for n in profile.nodes()
                 if n.frame.name.startswith("line")}
        assert {10, 12, 20} <= lines   # +2 relative and * repeat handled

    def test_call_edges_give_bottom_up_answers(self):
        from repro.analysis.transform import bottom_up
        profile = self.parse()
        tree = bottom_up(profile)
        calls = profile.schema.index_of("calls")
        compute_entries = [n for n in tree.root.children.values()
                           if n.frame.name == "compute"]
        assert compute_entries
        callers = set()
        for entry in compute_entries:
            callers |= {c.frame.name for c in entry.children.values()}
        assert "main" in callers
        assert profile.total("calls") == 3.0

    def test_module_from_ob(self):
        profile = self.parse()
        main = profile.find_by_name("main")[0]
        assert main.frame.module == "app"

    def test_sniffed_from_registry(self):
        from repro.converters import parse_bytes
        assert parse_bytes(self.SAMPLE).meta.tool == "callgrind"

    def test_cost_before_fn_rejected(self):
        from repro.converters.callgrind import parse as parse_callgrind
        with pytest.raises(FormatError, match="before any fn="):
            parse_callgrind(b"events: Ir\n10 5\n")

    def test_dangling_backreference_rejected(self):
        from repro.converters.callgrind import parse as parse_callgrind
        with pytest.raises(FormatError, match="back-reference"):
            parse_callgrind(b"events: Ir\nfn=(7)\n10 5\n")

    def test_no_cost_lines_rejected(self):
        from repro.converters.callgrind import parse as parse_callgrind
        with pytest.raises(FormatError, match="no cost lines"):
            parse_callgrind(b"events: Ir\nfn=(1) main\n")
