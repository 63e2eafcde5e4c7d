"""Command-line behavior: exit codes, outputs, and the sequence diagram."""

import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobsig import cli, simkernel
from mobsig.conformance import (
    CHECKED_NAMES,
    SEQUENCE_NAMES,
    TEMPLATES,
    load_trace,
    parse_trace,
    segment_contexts,
)
from mobsig.core import ENDS, FUNCTIONAL_ENTITIES, LinkDown
from mobsig.scenario import parse_scenario
from mobsig.simkernel import SimulationError, TraceRecord, TraceRecorder
from mobsig.simulation import Simulation

from support import (
    annotate,
    as_trace,
    expected_interruption_us,
    json_values,
    load_generator,
    trace_line,
)


def run_cli(*argv):
    return cli.main(list(argv))


# One line each: a non-string entity or message name, or a boolean time.
MISTYPED_RECORDS = [
    '{"t":0,"from":1,"to":"HOLM","msg":"X","params":{}}',
    '{"t":0,"from":"MRRM","to":2,"msg":"X","params":{}}',
    '{"t":0,"from":"MRRM","to":"HOLM","msg":3,"params":{}}',
    '{"t":true,"from":"MRRM","to":"HOLM","msg":"X","params":{}}',
]

# A good record, then one whose params hold 100 000 nested lists.
DEEP_TRACE = ('{"t":0,"from":"MRRM","to":"HOLM","msg":"X","params":{}}\n'
              '{"t":1,"from":"MRRM","to":"HOLM","msg":"X","params":{"x":'
              + "[" * 100_000 + "]" * 100_000 + "}}\n")

# A good record, then one whose message name holds a byte that is not UTF-8.
UNDECODABLE_TRACE = (b'{"t":0,"from":"MRRM","to":"HOLM","msg":"X","params":{}}\n'
                     b'{"t":1,"from":"MRRM","to":"HOLM","msg":"\xff","params":{}}\n')


# A good record, then one with an integer of 5 000 digits, past the limit of
# Python's int-from-text conversion, in params or in `t`.
LONG_INT_TRACES = {
    "params": '{"t":0,"from":"MRRM","to":"HOLM","msg":"X","params":{}}\n'
              '{"t":1,"from":"MRRM","to":"HOLM","msg":"X","params":{"flow":' + "9" * 5_000 + "}}\n",
    "t": '{"t":0,"from":"MRRM","to":"HOLM","msg":"X","params":{}}\n'
         '{"t":' + "9" * 5_000 + ',"from":"MRRM","to":"HOLM","msg":"X","params":{}}\n',
}


BUNDLED = ("mbb", "bbm", "fmip", "multi")

# Multi-flow traces fail `check` at the first reply that carries no flow id.
ROADMAP_ITEM_1 = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")

# The exit code and first output line of `check` on each bundled scenario's
# trace under each --template choice, and on bbm-reaimed (tests/conftest.py)
# under the two choices that reach its second handover.
REAIMED = (
    1,
    "violation: line 46: LinkDetachRequest's current net-zzz/cell-zzz is not its request's"
    " [template=bbm rule=access-mismatch:LinkDetachRequest.current]",
)
CHECK_VERDICTS = {
    ("mbb", "auto"): (0, "conformant (88 records, template=auto)"),
    ("mbb", "bbm"): (
        1,
        "violation: line 46: LinkAttachRequest precedes LinkDetachRequest"
        " [template=bbm rule=detach-before-attach]",
    ),
    ("mbb", "establishment"): (
        1,
        "violation: line 53: LinkDetachRequest must not occur here"
        " [template=establishment rule=forbidden:LinkDetachRequest]",
    ),
    ("mbb", "fmip"): (
        1,
        "violation: line 46: LinkAttachRequest must not occur here"
        " [template=fmip rule=forbidden:LinkAttachRequest]",
    ),
    ("mbb", "mbb"): (0, "conformant (88 records, template=mbb)"),
    ("bbm", "auto"): (0, "conformant (88 records, template=auto)"),
    ("bbm", "bbm"): (0, "conformant (88 records, template=bbm)"),
    ("bbm", "establishment"): (
        1,
        "violation: line 46: LinkDetachRequest must not occur here"
        " [template=establishment rule=forbidden:LinkDetachRequest]",
    ),
    ("bbm", "fmip"): (
        1,
        "violation: line 46: LinkDetachRequest must not occur here"
        " [template=fmip rule=forbidden:LinkDetachRequest]",
    ),
    ("bbm", "mbb"): (
        1,
        "violation: line 46: LinkDetachRequest precedes LinkAttachRequest"
        " [template=mbb rule=attach-before-detach]",
    ),
    ("fmip", "auto"): (0, "conformant (91 records, template=auto)"),
    ("fmip", "bbm"): (
        1,
        "violation: line 46: ProxyRouterAdvertisement must not occur here"
        " [template=bbm rule=forbidden:ProxyRouterAdvertisement]",
    ),
    ("fmip", "establishment"): (
        1,
        "violation: line 46: ProxyRouterAdvertisement must not occur here"
        " [template=establishment rule=forbidden:ProxyRouterAdvertisement]",
    ),
    ("fmip", "fmip"): (0, "conformant (91 records, template=fmip)"),
    ("fmip", "mbb"): (
        1,
        "violation: line 46: ProxyRouterAdvertisement must not occur here"
        " [template=mbb rule=forbidden:ProxyRouterAdvertisement]",
    ),
    ("multi", "auto"): (0, "conformant (200 records, template=auto)"),
    ("multi", "bbm"): (
        1,
        "violation: line 46: LinkAttachRequest precedes LinkDetachRequest"
        " [template=bbm rule=detach-before-attach]",
    ),
    ("multi", "establishment"): (
        1,
        "violation: line 53: LinkDetachRequest must not occur here"
        " [template=establishment rule=forbidden:LinkDetachRequest]",
    ),
    ("multi", "fmip"): (
        1,
        "violation: line 46: LinkAttachRequest must not occur here"
        " [template=fmip rule=forbidden:LinkAttachRequest]",
    ),
    ("multi", "mbb"): (0, "conformant (200 records, template=mbb)"),
    ("bbm-reaimed", "auto"): REAIMED,
    ("bbm-reaimed", "bbm"): REAIMED,
}


@pytest.fixture()
def mbb_outputs(tmp_path, scenario_path):
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    code = run_cli(
        "run",
        "--scenario", str(scenario_path("mbb")),
        "--trace", str(trace),
        "--metrics", str(metrics),
    )
    assert code == 0
    return trace, metrics


class TestRun:
    def test_writes_trace_and_metrics(self, mbb_outputs, capsys):
        trace, metrics = mbb_outputs
        records = load_trace(str(trace))
        assert records, "trace holds the recorded messages"
        assert records[0].line == 1
        report = json.loads(metrics.read_text())
        assert set(report) == {"handovers", "totals"}
        assert report["totals"]["count"] == 2

    def test_summary_line(self, tmp_path, scenario_path, capsys):
        code = run_cli(
            "run",
            "--scenario", str(scenario_path("mbb")),
            "--trace", str(tmp_path / "t.jsonl"),
            "--metrics", str(tmp_path / "m.json"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "run complete:" in out
        assert "2 handovers (2 ok, 0 failed)" in out

    def test_trace_and_metrics_are_opened_with_lf_line_ends(self, tmp_path, scenario_path,
                                                            monkeypatch):
        opened = []

        def spy(file, mode="r", *args, **kwargs):
            opened.append((str(file), mode, kwargs.get("newline")))
            return open(file, mode, *args, **kwargs)

        for module in (simkernel, cli):
            monkeypatch.setattr(module, "open", spy, raising=False)
        trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.json"
        assert run_cli("run", "--scenario", str(scenario_path("mbb")),
                       "--trace", str(trace), "--metrics", str(metrics)) == 0
        assert opened == [(str(trace), "w", "\n"), (str(metrics), "w", "\n")]

    def test_reruns_are_byte_identical(self, tmp_path, scenario_path):
        paths = []
        for n in (1, 2):
            trace = tmp_path / f"t{n}.jsonl"
            run_cli(
                "run",
                "--scenario", str(scenario_path("mbb")),
                "--trace", str(trace),
                "--metrics", str(tmp_path / f"m{n}.json"),
            )
            paths.append(trace)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_invalid_scenario_exits_2_without_trace(self, tmp_path, capsys):
        scenario = tmp_path / "bad.json"
        scenario.write_text("{broken")
        trace = tmp_path / "never.jsonl"
        code = run_cli(
            "run", "--scenario", str(scenario), "--trace", str(trace),
            "--metrics", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "scenario error:" in capsys.readouterr().err
        assert not trace.exists()

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff{}",
            b'{"seed": ' + b"1" * 5000 + b"}",
            b"[" * 100_000 + b"]" * 100_000,
        ],
        ids=["not-utf-8", "integer-past-the-digit-limit", "nested-too-deeply"],
    )
    def test_unreadable_scenario_exits_2_without_trace(self, tmp_path, capsys, content):
        scenario = tmp_path / "unreadable.json"
        scenario.write_bytes(content)
        trace = tmp_path / "never.jsonl"
        code = run_cli(
            "run", "--scenario", str(scenario), "--trace", str(trace),
            "--metrics", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("scenario error: ")
        assert not trace.exists()

    def test_schema_violation_names_the_field(self, tmp_path, scenario_path, capsys):
        doc = json.loads((scenario_path("mbb")).read_text())
        doc["cells"][0]["radius_m"] = 0
        scenario = tmp_path / "zero-radius.json"
        scenario.write_text(json.dumps(doc))
        code = run_cli(
            "run", "--scenario", str(scenario), "--trace", str(tmp_path / "t.jsonl"),
            "--metrics", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "cells[0].radius_m" in capsys.readouterr().err

    def test_runtime_abort_exits_3_with_partial_trace(self, tmp_path, scenario_path,
                                                      monkeypatch, capsys):
        class Doomed:
            def __init__(self, config):
                self.recorder = TraceRecorder()
                annotate(self.recorder, 0, LinkDown("last/words", 7))

            def run(self):
                raise SimulationError("deliberate failure")

        monkeypatch.setattr(cli, "Simulation", Doomed)
        trace = tmp_path / "partial.jsonl"
        code = run_cli(
            "run", "--scenario", str(scenario_path("mbb")), "--trace", str(trace),
            "--metrics", str(tmp_path / "m.json"),
        )
        assert code == 3
        assert "simulation aborted: deliberate failure" in capsys.readouterr().err
        assert trace.exists()
        assert '"msg":"LinkDown","params":{"access":"last/words","flow":7}' in trace.read_text()

    def test_seed_override_is_accepted(self, tmp_path, scenario_path):
        code = run_cli(
            "run", "--scenario", str(scenario_path("mbb")), "--trace",
            str(tmp_path / "t.jsonl"), "--metrics", str(tmp_path / "m.json"),
            "--seed", "123",
        )
        assert code == 0


class TestCheck:
    def test_conformant_trace_exits_0(self, mbb_outputs, capsys):
        trace, _ = mbb_outputs
        assert run_cli("check", "--trace", str(trace)) == 0
        assert "conformant" in capsys.readouterr().out

    def test_tampered_trace_exits_1(self, mbb_outputs, tmp_path, capsys):
        trace, _ = mbb_outputs
        lines = trace.read_text().splitlines()
        names = [json.loads(line)["msg"] for line in lines]
        update = names.index("BindingUpdate")
        ack = names.index("BindingAck")
        lines[update], lines[ack] = lines[ack], lines[update]
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        assert run_cli("check", "--trace", str(tampered)) == 1
        err = capsys.readouterr().err
        assert "violation:" in err
        assert "binding-update-before-ack" in err
        assert f"line {update + 1}:" in err

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_the_record_count_agrees_with_its_noun(self, tmp_path, capsys, count):
        record = {"t": 0, "from": "MRRM", "to": "HOLM", "msg": "HOExecutionRequest",
                  "params": {"current": None, "flow": 1, "mbb_flag": True,
                             "target": {"cell_id": "cell-a", "network_id": "net-1", "rat": "wlan"}}}
        trace = tmp_path / "short.jsonl"
        trace.write_text(count * (json.dumps(record) + "\n"))
        assert run_cli("check", "--trace", str(trace)) == 0
        noun = "record" if count == 1 else "records"
        assert capsys.readouterr().out == f"conformant ({count} {noun}, template=auto)\n"

    def test_wrong_named_template_exits_1(self, mbb_outputs, capsys):
        trace, _ = mbb_outputs
        assert run_cli("check", "--trace", str(trace), "--template", "fmip") == 1
        assert "template=fmip" in capsys.readouterr().err

    def test_named_template_matching_the_variant_passes(self, mbb_outputs):
        trace, _ = mbb_outputs
        assert run_cli("check", "--trace", str(trace), "--template", "mbb") == 0

    def test_unreadable_trace_exits_2(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json\n")
        assert run_cli("check", "--trace", str(garbage)) == 2
        assert "trace error: line 1:" in capsys.readouterr().err

    def test_missing_param_exits_2_without_traceback(self, tmp_path, capsys):
        record = {"t": 0, "from": "MRRM", "to": "HOLM", "msg": "HOExecutionRequest",
                  "params": {}}
        trace = tmp_path / "malformed.jsonl"
        trace.write_text(json.dumps(record) + "\n")
        assert run_cli("check", "--trace", str(trace)) == 2
        err = capsys.readouterr().err
        assert err.startswith("trace error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("msg, field, value, message", [
        ("HOExecutionRequest", "flow", None, "HOExecutionRequest has no 'flow'"),
        ("LinkAttachRequest", "target", None, "LinkAttachRequest has no 'target'"),
        ("HOExecutionRequest", "flow", [1], "HOExecutionRequest needs an integer 'flow'"),
        ("LinkAttachRequest", "flow", True, "LinkAttachRequest needs an integer 'flow'"),
        ("LinkDetachRequest", "current", "net-1/cell-a", "LinkDetachRequest's 'current' needs"),
        ("HOExecutionRequest", "current", {"cell_id": "cell-a"},
         "HOExecutionRequest's 'current' needs"),
        ("HOExecutionRequest", "target", None, "HOExecutionRequest has no 'target'"),
        ("HOExecutionRequest", "target", 7, "HOExecutionRequest's 'target' needs"),
        ("HOComplete", "result", None, "HOComplete has no 'result'"),
        ("HOComplete", "result", "done",
         """HOComplete's 'result' must be "success" or "failure"\n"""),
    ])
    def test_malformed_params_exit_2_naming_their_line(self, mbb_outputs, tmp_path, capsys,
                                                        msg, field, value, message):
        # The first record named msg loses field (value None) or gets value.
        trace, _ = mbb_outputs
        lines = trace.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1) if f'"msg":"{msg}"' in line)
        record = json.loads(lines[lineno - 1])
        if value is None:
            del record["params"][field]
        else:
            record["params"][field] = value
        lines[lineno - 1] = json.dumps(record)
        malformed = tmp_path / "malformed.jsonl"
        malformed.write_text("\n".join(lines) + "\n")
        assert run_cli("check", "--trace", str(malformed)) == 2
        assert capsys.readouterr().err.startswith(f"trace error: line {lineno}: {message}")

    def test_mistyped_access_exits_2(self, mbb_outputs, tmp_path, capsys):
        trace, _ = mbb_outputs
        lines = trace.read_text().splitlines()
        for index, line in enumerate(lines):
            record = json.loads(line)
            if record["msg"] == "LinkAttachRequest":
                record["params"]["target"] = "oops"
                lines[index] = json.dumps(record)
                break
        tampered = tmp_path / "mistyped.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        assert run_cli("check", "--trace", str(tampered)) == 2
        assert capsys.readouterr().err.startswith("trace error:")

    @pytest.mark.parametrize("line", MISTYPED_RECORDS)
    def test_mistyped_record_exits_2_with_its_line(self, tmp_path, capsys, line):
        trace = tmp_path / "mistyped.jsonl"
        trace.write_text(line + "\n")
        assert run_cli("check", "--trace", str(trace)) == 2
        err = capsys.readouterr().err
        assert err.startswith("trace error: line 1: field ")
        assert "Traceback" not in err

    def test_undecodable_byte_exits_2_with_its_line(self, tmp_path, capsys):
        trace = tmp_path / "undecodable.jsonl"
        trace.write_bytes(UNDECODABLE_TRACE)
        assert run_cli("check", "--trace", str(trace)) == 2
        assert capsys.readouterr().err == "trace error: line 2: not valid UTF-8\n"

    def test_bad_line_before_an_undecodable_byte_is_reported_first(self, tmp_path, capsys):
        trace = tmp_path / "undecodable.jsonl"
        trace.write_bytes(b"{broken\n" + UNDECODABLE_TRACE)
        assert run_cli("check", "--trace", str(trace)) == 2
        assert capsys.readouterr().err.startswith("trace error: line 1: not valid JSON")

    def test_params_nested_too_deeply_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "deep.jsonl"
        trace.write_text(DEEP_TRACE)
        assert run_cli("check", "--trace", str(trace)) == 2
        assert capsys.readouterr().err == "trace error: line 2: params nested too deeply\n"

    @pytest.mark.parametrize("where", LONG_INT_TRACES)
    def test_integer_past_the_digit_limit_exits_2_with_its_line(self, tmp_path, capsys, where):
        trace = tmp_path / "long-int.jsonl"
        trace.write_text(LONG_INT_TRACES[where])
        assert run_cli("check", "--trace", str(trace)) == 2
        assert capsys.readouterr().err.startswith("trace error: line 2: not valid JSON: ")

    def test_crlf_line_ends_give_the_same_verdicts(self, mbb_outputs, tmp_path, capsys):
        trace, _ = mbb_outputs
        lines = trace.read_text().splitlines()
        update = next(i for i, line in enumerate(lines) if '"msg":"BindingUpdate"' in line)
        ack = next(i for i, line in enumerate(lines) if '"msg":"BindingAck"' in line)
        swapped = list(lines)
        swapped[update], swapped[ack] = lines[ack], lines[update]
        for form in (lines, swapped):
            verdicts = []
            for end in ("\n", "\r\n"):
                path = tmp_path / "form.jsonl"
                path.write_bytes("".join(line + end for line in form).encode())
                verdicts.append((run_cli("check", "--trace", str(path)), capsys.readouterr()))
            assert verdicts[0] == verdicts[1]
        assert [code for code, _ in verdicts] == [1, 1]

    def test_missing_trace_exits_2(self, tmp_path):
        assert run_cli("check", "--trace", str(tmp_path / "absent.jsonl")) == 2

    def test_unknown_template_is_rejected_by_the_parser(self, mbb_outputs):
        trace, _ = mbb_outputs
        with pytest.raises(SystemExit):
            run_cli("check", "--trace", str(trace), "--template", "imaginary")

    def test_every_template_choice_is_pinned(self):
        choices = {"auto", *TEMPLATES}
        bundled = {(s, t) for s, t in CHECK_VERDICTS if s in BUNDLED}
        assert bundled == {(s, t) for s in BUNDLED for t in choices}

    @pytest.mark.parametrize(("scenario", "template"), sorted(CHECK_VERDICTS))
    def test_bundled_trace_verdict(self, reader_traces, capsys, scenario, template):
        code = run_cli("check", "--trace", str(reader_traces[scenario]), "--template", template)
        captured = capsys.readouterr()
        first = (captured.out + captured.err).splitlines()[0]
        assert (code, first) == CHECK_VERDICTS[scenario, template]

    @pytest.mark.parametrize(("workload", "seed", "slow"), [
        ("long-walk", 1, True),
        pytest.param("multiflow-dense", 3, False, marks=ROADMAP_ITEM_1),
        pytest.param("multiflow-dense", 1, True, marks=ROADMAP_ITEM_1),
    ])
    def test_simulated_trace_conforms_under_auto(self, generated_runs, workload, seed, slow):
        [run] = generated_runs(workload, seed, slow).values()
        assert run_cli("check", "--trace", str(run.trace)) == 0


# The --template choices each trace of tests/conftest.py's reader_traces is
# checked under when read both ways.
READER_CHOICES = {
    **dict.fromkeys([*BUNDLED, "slow-signalling"], ["auto", *sorted(TEMPLATES)]),
    "multiflow-dense-seed3": ["auto"],
    "bbm-reaimed": ["auto", "bbm"],
}


@pytest.mark.parametrize("name", READER_CHOICES)
def test_both_readers_print_the_same(name, reader_traces, tmp_path, capsys, monkeypatch):
    """Two more forms of each trace print the same as it does and exit the
    same, under `check` with each choice and under `diagram`: each line as
    json.dumps re-serializes it with its default separators, a layout that
    skips the reader's fast path for the writer's own lines, and each line
    with one space after its "params":, which keeps the writer's layout but
    hands the padded params text to the general reader. Each form is read
    once, and every command on it reuses that read."""
    monkeypatch.setattr(cli, "load_trace", functools.cache(cli.load_trace))

    def outputs(trace):
        seen = [(run_cli("check", "--trace", str(trace), "--template", choice), capsys.readouterr())
                for choice in READER_CHOICES[name]]
        return [*seen, (run_cli("diagram", "--trace", str(trace)), capsys.readouterr())]

    written = reader_traces[name]
    lines = written.read_text(encoding="utf-8").splitlines()
    spaced, padded = tmp_path / "spaced.jsonl", tmp_path / "padded.jsonl"
    spaced.write_text("".join(json.dumps(json.loads(line)) + "\n" for line in lines),
                      encoding="utf-8")
    padded.write_text("".join(line.replace('"params":', '"params": ', 1) + "\n" for line in lines),
                      encoding="utf-8")
    expected = outputs(written)
    assert outputs(spaced) == expected
    assert outputs(padded) == expected


def test_written_lines_are_canonical(bundled_runs, generated_runs):
    """Every line `mobsig run` writes equals json.dumps of its record: the
    head fields t, from, to, msg in that order, then params with sorted keys,
    all with compact separators. Its from and to are the ends ENDS declares
    for its msg, and a trace holds one line per record its run reported.
    The traces are the bundled ones, multiflow-dense at seed 3, which no
    digest pins, and the long walk and multiflow-dense under slow
    signalling, whose failed HOComplete records carry a reason. Together
    they hold every name ENDS declares, so each payload type's renderer
    writes some of these lines."""
    runs = [*bundled_runs.values(), *generated_runs("multiflow-dense", 3).values(),
            *generated_runs("long-walk", slow=True).values(),
            *generated_runs("multiflow-dense", slow=True).values()]
    names = set()
    for run in runs:
        with open(run.trace, encoding="utf-8", newline="\n") as handle:
            lines = 0
            for lines, line in enumerate(handle, start=1):
                record = json.loads(line)
                head = json.dumps({key: record.get(key) for key in ("t", "from", "to", "msg")},
                                  separators=(",", ":"))
                params = json.dumps(record.get("params"), sort_keys=True, separators=(",", ":"))
                where = f"{run.trace}:{lines}"
                assert line == f'{head[:-1]},"params":{params}}}\n', where
                assert (record["from"], record["to"]) == ENDS.get(record["msg"]), where
                names.add(record["msg"])
        assert lines == run.events, run.trace
    assert names == set(ENDS)


class TestDiagram:
    def test_renders_one_row_per_record(self, mbb_outputs, capsys):
        trace, _ = mbb_outputs
        assert run_cli("diagram", "--trace", str(trace)) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 1 + len(load_trace(str(trace)))
        header = lines[0]
        for fe in ("MRRM", "HOLM", "PathSelect", "FlowMng", "Env", "Daemon"):
            assert fe in header
        assert any("HOExecutionRequest [flow=1]" in line for line in lines)
        assert any(">" in line or "<" in line for line in lines)

    def test_empty_trace_renders_header_only(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run_cli("diagram", "--trace", str(empty)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert "MRRM" in lines[0] and "Daemon" in lines[0]

    def test_unreadable_trace_exits_2(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("{nope\n")
        assert run_cli("diagram", "--trace", str(garbage)) == 2

    @pytest.mark.parametrize("line", MISTYPED_RECORDS)
    def test_mistyped_record_exits_2_with_its_line(self, tmp_path, capsys, line):
        trace = tmp_path / "mistyped.jsonl"
        trace.write_text(line + "\n")
        assert run_cli("diagram", "--trace", str(trace)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("trace error: line 1: field ")
        assert captured.out == ""

    def test_undecodable_byte_exits_2_with_its_line(self, tmp_path, capsys):
        trace = tmp_path / "undecodable.jsonl"
        trace.write_bytes(UNDECODABLE_TRACE)
        assert run_cli("diagram", "--trace", str(trace)) == 2
        captured = capsys.readouterr()
        assert captured.err == "trace error: line 2: not valid UTF-8\n"
        assert captured.out == ""

    def test_params_nested_too_deeply_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "deep.jsonl"
        trace.write_text(DEEP_TRACE)
        assert run_cli("diagram", "--trace", str(trace)) == 2
        captured = capsys.readouterr()
        assert captured.err == "trace error: line 2: params nested too deeply\n"
        assert captured.out == ""

    @pytest.mark.parametrize("where", LONG_INT_TRACES)
    def test_integer_past_the_digit_limit_exits_2_with_its_line(self, tmp_path, capsys, where):
        trace = tmp_path / "long-int.jsonl"
        trace.write_text(LONG_INT_TRACES[where])
        assert run_cli("diagram", "--trace", str(trace)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("trace error: line 2: not valid JSON: ")
        assert captured.out == ""

    def test_a_record_stays_on_one_row(self, tmp_path, capsys):
        trace = tmp_path / "line-break.jsonl"
        trace.write_text('{"t":0,"from":"MRRM","to":"HOLM","msg":"A\\nB","params":{"flow":true}}\n')
        assert run_cli("diagram", "--trace", str(trace)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].endswith('  "A\\nB" [flow=true]')
        assert run_cli("check", "--trace", str(trace)) == 0

    def test_rendering_is_deterministic(self, mbb_outputs, capsys):
        trace, _ = mbb_outputs
        run_cli("diagram", "--trace", str(trace))
        first = capsys.readouterr().out
        run_cli("diagram", "--trace", str(trace))
        assert capsys.readouterr().out == first


class TestUnwritableStdout:
    """Each command writes and flushes its stdout in one step: a stdout that
    takes nothing gives exit 3 and one line on stderr, never a traceback."""

    @staticmethod
    def commands(scenario_path, out: Path) -> dict[str, list[str]]:
        trace = str(out / "t.jsonl")
        return {
            "run": ["run", "--scenario", str(scenario_path("mbb")), "--trace", trace,
                    "--metrics", str(out / "m.json")],
            "check": ["check", "--trace", trace],
            "diagram": ["diagram", "--trace", trace],
        }

    def test_each_command_exits_3_in_process(self, tmp_path, scenario_path, capsys):
        for name, argv in self.commands(scenario_path, tmp_path).items():
            with open("/dev/full", "w", encoding="utf-8") as full, \
                    contextlib.redirect_stdout(full):
                assert run_cli(*argv) == 3, name
            err = capsys.readouterr().err
            assert err == "cannot write output: [Errno 28] No space left on device\n", name
        # The run wrote its files before its summary line failed.
        assert run_cli("check", "--trace", str(tmp_path / "t.jsonl")) == 0

    @pytest.mark.parametrize("buffering", [[], ["-u"]], ids=["buffered", "unbuffered"])
    def test_each_command_exits_3_as_a_process(self, tmp_path, scenario_path, buffering):
        """Python flushes stdout once more at exit; that flush finds nothing
        left to write, so the exit code stays 3 ("Exception ignored" and 120
        otherwise). Under -X dev -W error, a warning, such as a
        ResourceWarning for a file never closed, would fail it too."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        for name, argv in self.commands(scenario_path, tmp_path).items():
            with open("/dev/full", "w") as full:
                done = subprocess.run([sys.executable, *buffering, "-X", "dev", "-W", "error",
                                       "-m", "mobsig.cli", *argv],
                                      stdout=full, stderr=subprocess.PIPE, text=True, env=env)
            assert (done.returncode, done.stderr) == (
                3, "cannot write output: [Errno 28] No space left on device\n"), name

    def test_a_pipe_closed_by_its_reader_exits_3(self, tmp_path, scenario_path):
        """As when the diagram is piped to a reader that stops early."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        argv = self.commands(scenario_path, tmp_path)
        assert run_cli(*argv["run"]) == 0
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "mobsig.cli", *argv["diagram"]],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (3, "cannot write output: [Errno 32] Broken pipe\n")


class TestRenderDiagram:
    def test_self_message_is_a_star(self):
        record = TraceRecord(at=3, sender="Env", receiver="Env", name="LinkUp", params={})
        out = cli.render_diagram(as_trace([record]))
        row = out.splitlines()[1]
        assert "*" in row and ">" not in row
        assert row.endswith("LinkUp")

    def test_unknown_entities_get_extra_columns(self):
        record = TraceRecord(at=0, sender="Alien", receiver="MRRM", name="Ping", params={})
        out = cli.render_diagram(as_trace([record]))
        assert "Alien" in out.splitlines()[0]
        assert "<" in out.splitlines()[1]  # arrow pointing left toward MRRM


def _escaped(name):
    return name if name.isprintable() else json.dumps(name)


def _row_by_row_diagram(records, width=12):
    """render_diagram as it drew every row in full, kept as the reference.

    A name that is not printable shows as its JSON string literal, and a flow
    that is not an int as its JSON text."""
    seen = {r.sender for r in records} | {r.receiver for r in records}
    columns = list(FUNCTIONAL_ENTITIES) + sorted(seen - set(FUNCTIONAL_ENTITIES))
    centers = {fe: i * width + width // 2 for i, fe in enumerate(columns)}
    lines = [" " * 12 + "".join(_escaped(fe).center(width) for fe in columns)]
    for record in records:
        row = [" "] * (len(columns) * width)
        for center in centers.values():
            row[center] = "|"
        src = centers[record.sender]
        dst = centers[record.receiver]
        if src == dst:
            row[src] = "*"
        else:
            for x in range(min(src, dst) + 1, max(src, dst)):
                row[x] = "-"
            if dst > src:
                row[dst - 1] = ">"
            else:
                row[dst + 1] = "<"
        label = _escaped(record.name)
        flow = record.params.get("flow")
        if flow is not None:
            label += f" [flow={flow if type(flow) is int else json.dumps(flow)}]"
        lines.append(f"{record.at:>10}  " + "".join(row).rstrip() + "  " + label)
    return "\n".join(line.rstrip() for line in lines) + "\n"


padded_names = st.builds(lambda name, pad: name + pad, st.text(max_size=6),
                         st.sampled_from(["", " ", "  \t"]))
entities = st.sampled_from(FUNCTIONAL_ENTITIES) | padded_names
diagram_records = st.builds(
    TraceRecord,
    at=st.integers(min_value=-10, max_value=10**12),
    sender=entities,
    receiver=entities,
    name=padded_names,
    params=st.fixed_dictionaries(
        {}, optional={"flow": st.none() | st.booleans() | st.integers(0, 2) | st.integers()
                      | st.text(max_size=3)}
    ),
)


@given(records=st.lists(diagram_records, max_size=12))
def test_render_diagram_equals_row_by_row_drawing(records):
    assert cli.render_diagram(as_trace(records)) == _row_by_row_diagram(records)


names = st.sampled_from(FUNCTIONAL_ENTITIES) | st.text()


@given(records=st.lists(st.builds(
    TraceRecord,
    at=st.integers(),
    sender=names,
    receiver=names,
    name=st.text(),
    params=st.fixed_dictionaries({}, optional={"flow": json_values}),
)))
def test_render_diagram_draws_one_line_per_record(records):
    assert cli.render_diagram(as_trace(records)).count("\n") == len(records) + 1


# The heads of the primitives and annotations a run writes.
REAL_HEADS = sorted((sender, receiver, name) for name, (sender, receiver) in ENDS.items())
# Params values that equal themselves (no NaN), an access object among them.
column_params = st.dictionaries(
    st.sampled_from(["flow", "target", "result", "k"]),
    st.none() | st.booleans() | st.integers(0, 3) | st.integers() | st.text(max_size=3)
    | st.just({"cell_id": "cell-a", "network_id": "net-1", "rat": "wlan"}),
    max_size=3,
)


@st.composite
def column_reader_lines(draw):
    """Trace lines under real heads, each ending in LF: params drawn from a
    small pool the lines share, or afresh; blank lines; a CR before the line
    end; and lines re-serialized by json.dumps, which the general reader
    takes, or with padded params."""
    pool = draw(st.lists(column_params, min_size=1, max_size=3))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\r"])) + "\n")
            continue
        sender, receiver, name = draw(st.sampled_from(REAL_HEADS))
        params = draw(st.sampled_from(pool) | column_params)
        at = draw(st.integers(0, 3) | st.integers(-10**20, 10**20))
        line = trace_line(TraceRecord(at, sender, receiver, name, params))
        form = draw(st.sampled_from(["writer", "writer", "dumps", "padded"]))
        if form == "dumps":
            line = json.dumps(json.loads(line))
        elif form == "padded":
            head, params_text = line.split('"params":', 1)
            line = f'{head}"params": {params_text[:-1]} }}'
        lines.append(line + draw(st.sampled_from(["\n", "\r\n"])))
    return lines


@settings(max_examples=200, deadline=None)
@given(lines=column_reader_lines())
def test_the_column_reader_equals_the_reference_reader(lines):
    """Each row of parse_trace equals TraceRecord.from_json of its non-blank
    line, field by field, line number included; the trace counts those lines,
    and its diagram is the row-by-row drawing of those records."""
    reference = [TraceRecord.from_json(line, lineno)
                 for lineno, line in enumerate(lines, start=1) if line.strip()]
    trace = parse_trace(lines)
    assert len(trace) == len(reference)
    assert list(trace) == reference
    assert repr(list(trace)) == repr(reference)  # a bool is no int, nor an int a float
    assert [trace[index] for index in range(-len(trace), 0)] == reference
    assert cli.render_diagram(trace) == _row_by_row_diagram(reference)


# Values of the params fields the checker reads: valid ones, and ones of
# the wrong type, an access object with no network_id and an access key.
CELL_A = {"cell_id": "cell-a", "network_id": "net-1", "rat": "wlan"}
CELL_B = {"cell_id": "cell-b", "network_id": "net-2", "rat": "cellular"}
valid_params = st.fixed_dictionaries({
    "flow": st.sampled_from([1, 2]),
    "current": st.sampled_from([CELL_A, CELL_B, None]),
    "target": st.sampled_from([CELL_A, CELL_B]),
    "result": st.sampled_from(["success", "failure"]),
})
access_values = st.sampled_from([CELL_A, CELL_B, None, {"cell_id": "cell-a"}, "net-1/cell-a"])
# Params with every field the checker reads, each valid or not, mostly all
# valid; or with some of them, each any JSON value too.
checked_params = valid_params | valid_params | st.fixed_dictionaries({
    "flow": st.sampled_from([1, 2, True, "1", None]),
    "current": access_values,
    "target": access_values,
    "result": st.sampled_from(["success", "failure", "done", None]),
}) | st.fixed_dictionaries({}, optional={
    "flow": st.sampled_from([1, 2]) | json_values,
    "current": access_values | json_values,
    "target": access_values | json_values,
    "result": st.sampled_from(["success", "failure"]) | json_values,
})
# A record's msg: mostly one the checker reads, often the request that opens
# a context, or any name ENDS declares.
head_names = (st.just("HOExecutionRequest") | st.sampled_from(sorted(CHECKED_NAMES))
              | st.sampled_from(sorted(ENDS)))


@settings(max_examples=100, deadline=None)
@given(records=st.lists(st.tuples(head_names, st.integers(0, 3), checked_params), max_size=14))
def test_check_and_diagram_keep_their_exit_codes_on_any_params(records):
    """`check`, under every --template, exits 0, 1 or 2 and `diagram` 0 or 2,
    and neither raises, whatever the fields the checker reads hold."""
    text = "".join(json.dumps({"t": at, "from": ENDS[name][0], "to": ENDS[name][1], "msg": name,
                               "params": params}) + "\n"
                   for name, at, params in records)
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        trace = Path(out, "trace.jsonl")
        trace.write_text(text, encoding="utf-8")
        for template in ["auto", *sorted(TEMPLATES)]:
            assert run_cli("check", "--trace", str(trace), "--template", template) in (0, 1, 2)
        assert run_cli("diagram", "--trace", str(trace)) in (0, 2)


def test_argv_is_required():
    with pytest.raises(SystemExit):
        cli.main([])


latencies = st.sampled_from([5_000, 400_000, 4_000_000, 4_000_000]) | st.integers(0, 4_000_000)


@st.composite
def generated_scenarios(draw, flows=st.integers(1, 3)):
    """A scenario of the benchmark's family (bench/gen.py) of any handover
    style and one to three flows (as ``flows`` draws them), with jitter,
    signalling of up to 4 s, forbidden networks, and paths that policy bans
    or that are too slow."""
    cells = draw(st.integers(2, 6))
    document = load_generator().scenario(
        random.Random(draw(st.integers(0, 2**16))),
        cells=cells,
        waypoints=draw(st.integers(2, 5)),
        flows=draw(flows),
        duration_us=draw(st.integers(1, 4)) * cells * 1_000_000,
        jitter_us=draw(st.sampled_from([0, 20_000])),
        fmip_share=draw(st.sampled_from([0.0, 0.5, 1.0])),
        mbb_capable=draw(st.booleans()),
        flow_stagger_us=draw(st.sampled_from([0, 2_000_000])),
    )
    document["latencies"] = {"binding_rtt_us": draw(latencies), "fmip_oneway_us": draw(latencies)}
    networks = sorted(cell["network_id"] for cell in document["cells"])
    document["policy"]["forbidden_networks"] = draw(
        st.lists(st.sampled_from(networks), unique=True, max_size=1))
    for model in document["path_models"].values():
        unusable = draw(st.sampled_from([None, None, None, None, "banned", "slow"]))
        if unusable == "banned":
            model["policy_allowed"] = False
        elif unusable == "slow":
            model["path_latency_ms"] = 200
    return document


@settings(max_examples=60, deadline=None)
@given(document=generated_scenarios())
def test_generated_scenarios_run_and_their_single_flow_traces_conform(document):
    """No run of a valid scenario trips an entity's assert (exit 3), and the
    checker accepts every single-flow trace the simulator writes."""
    with tempfile.TemporaryDirectory() as out:
        scenario, trace = Path(out, "scenario.json"), Path(out, "trace.jsonl")
        scenario.write_text(json.dumps(document), encoding="utf-8")
        assert run_cli("run", "--scenario", str(scenario), "--trace", str(trace),
                       "--metrics", str(Path(out, "metrics.json"))) == 0
        if len(document["flows"]) == 1:
            assert run_cli("check", "--trace", str(trace)) == 0


@settings(max_examples=60, deadline=None)
@given(document=generated_scenarios(flows=st.just(1)))
def test_single_flow_metrics_agree_with_the_checkers_contexts(document):
    """Each metrics entry of a one-flow run has the flow, request time,
    message count, result and reason of its handover context as the checker
    cuts it from the trace; without jitter, each successful handover's
    interruption is the latency-sum oracle's."""
    config = parse_scenario(document)
    result = Simulation(config).run()
    contexts = segment_contexts(result.records)
    handovers = result.metrics["handovers"]
    assert len(handovers) == len(contexts)
    for entry, context in zip(handovers, contexts):
        request = context.records[0]
        [done] = [record for record in context.records if record.name == "HOComplete"]
        assert (entry["flow"], entry["t_request_us"], entry["message_count"], entry["result"],
                entry.get("reason")) == (
            request.params["flow"], request.at,
            sum(record.name in SEQUENCE_NAMES for record in context.records),
            done.params["result"], done.params.get("reason"))
        if config.jitter_us == 0 and entry["result"] == "success" \
                and entry["variant"] != "establishment":
            old, new = (f"{request.params[field]['network_id']}/{request.params[field]['cell_id']}"
                        for field in ("current", "target"))
            assert entry["interruption_us"] == expected_interruption_us(
                config, entry["variant"], old, new)
