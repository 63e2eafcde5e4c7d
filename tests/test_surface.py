"""The package holds what the command line reaches, and nothing more.

The test imports a fresh copy of mobsig under ``sys.settrace`` and drives
``cli.main`` over a fixed family of inputs: ``run``, then ``check`` under
``auto`` and under every ``--template``, then ``diagram``, for

* the four bundled scenarios, as they are and with both signalling latencies
  at 4 000 000 us;
* hand-made valid scenarios for what the bundled ones leave out: jitter,
  three flows, every network forbidden, a path that policy bans, a path
  slower than the request, a request for no bandwidth, and a walk that
  outruns its signalling, so that handovers fail;
* malformed inputs as data: one scenario mutation per rejection in
  ``mobsig.scenario``, one trace line per reader or field error, tampered
  traces (adjacent swaps, a repeated line, handovers to the access they
  leave, a link request re-aimed at an access its handover does not name and
  a success that runs no row) and a two-flow trace whose handovers overlap;
* ``run``, ``check`` and ``diagram`` with stdout on a full device.

Every statement of ``src/mobsig`` must be reached: a line event must land in
its span, as the AST gives it, so the line tables of different Python
versions agree. A function must also be called, not only defined; a
docstring is not a statement. A statement the command line cannot reach
goes, or it is listed in ``LINE_EXEMPT`` with the reason it stays. The list
only shrinks: an entry that is reached, or whose statement is gone, fails
the test too.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import json
import pkgutil
import sys
from pathlib import Path

import mobsig

PACKAGE = Path(mobsig.__file__).parent

# Statements that the command line cannot reach and that stay, by
# (module, enclosing function, first line of a statement or except clause):
# an entry covers the statements inside that one which are not reached. Only
# four kinds stay: the handling of a failure that a call can answer, the
# invariants of the value types, the loud end of a broken run (the kernel's
# wiring checks and exit 3), and a finished run's records in memory; and the
# module entry point.
_FAILURE = "handles a failure that the call can answer"
_INVARIANT = "an invariant of a value type"
_RECORDS = ("a run's records in memory, with params dicts: bench/run.py reads them, "
            "and the command line writes and counts the events without them")
LINE_EXEMPT: dict[tuple[str, str, str], str] = {
    ("environment.py", "Environment.locator_valid", "if state is None:"):
        _FAILURE + ": an address that was never allocated is not valid",
    ("environment.py", "Environment.link_attach", "if self.attached(flow, target):"):
        _FAILURE + ": already_attached",
    ("environment.py", "Environment.allocate_locator", "if not cell.supports_fmip:"):
        _FAILURE + ": fmip_unsupported",
    ("environment.py", "Environment.allocate_locator", "if not self.attached(flow, access):"):
        _FAILURE + ": not_attached",
    ("protocols.py", "DaemonHost.update_binding",
     "if not self._env.locator_valid(new_locator):"): _FAILURE + ": stale_locator",
    ("protocols.py", "DaemonHost.tunnel_start",
     "if not self._env.attached(ctx.flow, ctx.target):"): _FAILURE + ": not_attached",
    ("protocols.py", "DaemonHost.handle", "if not self._on_old_link(ctx):"):
        _FAILURE + ": link_lost once the advertisement arrives",
    ("protocols.py", "DaemonHost.handle",
     "if isinstance(payload, FastBindingAck) and result.ok and not self._on_old_link(ctx):"):
        _FAILURE + ": link_lost once the fast binding is acked",
    ("mrrm.py", "Mrrm._on_ho_complete", "if succeeded:"):
        _FAILURE + ": a failed establishment",
    ("mrrm.py", "Mrrm._relay_switch.detached", "if not result.ok:"):
        _FAILURE + ": the detach of a switch fails",
    ("core.py", "AccessId", "def __reduce__(self) -> tuple[type, tuple[str, str, str]]:"):
        _INVARIANT + ": a copied or unpickled access id is the interned one",
    ("core.py", "Locator", "def __post_init__(self) -> None:"): _INVARIANT,
    ("core.py", "Rating", "def __post_init__(self) -> None:"): _INVARIANT,
    ("core.py", "AccessSets", "def __post_init__(self) -> None:"): _INVARIANT,
    ("core.py", "Result", "def __post_init__(self) -> None:"): _INVARIANT,
    ("core.py", "PathSelected", "def __post_init__(self) -> None:"): _INVARIANT,
    ("simkernel.py", "Kernel.schedule", "if delay_us < 0:"): "a wiring check of the kernel",
    ("simkernel.py", "Kernel.schedule", "if receiver not in self._handlers:"):
        "a wiring check of the kernel",
    ("simkernel.py", "Kernel.run_until_quiescent", "except Exception as exc:"):
        "a failing handler ends the run: exit 3",
    ("cli.py", "_cmd_run", "except SimulationError as exc:"): "exit 3 and the partial trace",
    ("core.py", "", "def _plain(value: Any) -> Any:"): _RECORDS,
    ("core.py", "Payload", "def params(self) -> dict[str, Any]:"): _RECORDS,
    ("simkernel.py", "", "def trace_records(events: list[SimEvent]) -> Trace:"): _RECORDS,
    ("simulation.py", "SimulationResult", "def records(self) -> Trace:"): _RECORDS,
    ("cli.py", "", 'if __name__ == "__main__":'): "the entry point of python -m mobsig.cli",
}

BUNDLED = ("mbb", "bbm", "fmip", "multi")
SLOW = {"binding_rtt_us": 4_000_000, "fmip_oneway_us": 4_000_000}
DELETE = object()


def _edited(document, edits: dict[str, object]):
    """A copy of a scenario document with each dotted path set to its value
    (DELETE removes it)."""
    document = json.loads(json.dumps(document))
    for path, value in edits.items():
        *parents, last = path.split(".")
        node = document
        for key in parents:
            node = node[int(key) if isinstance(node, list) else key]
        key = int(last) if isinstance(node, list) else last
        if value is DELETE:
            del node[key]
        elif isinstance(node, list) and key == len(node):  # one past the end
            node.append(value)
        else:
            node[key] = value
    return document


# Valid scenarios that reach what the bundled ones do not, as edits of one.
_QOS = {"bandwidth_kbps": 1000, "max_latency_ms": 80}
VALID_EDITS = {
    # Jitter, and handovers that leave the granted QoS as it was.
    "jittered": ("multi", {"jitter_us": 20_000,
                           "cells.1.capacity": {"bandwidth_kbps": 2000, "max_latency_ms": 40},
                           "cells.3.capacity": {"bandwidth_kbps": 2000, "max_latency_ms": 40}}),
    # A setup that arrives while an establishment cycle runs, and one that
    # arrives while a handover is in flight.
    "three-flows": ("multi", {"flows.1": {"id": 2, "start_us": 0, "requested_qos": _QOS},
                              "flows.2": {"id": 3, "start_us": 20_000, "requested_qos": _QOS}}),
    # The walk outruns 4 s signalling: an fmip handover fails out_of_coverage
    # and strands the flow, so bbm ones fail not_attached and fmip ones
    # link_lost.
    "stranded": ("multi", {"latencies": SLOW, "policy.mbb_capable": False,
                           "cells.1.supports_fmip": True, "cells.3.supports_fmip": True}),
    "all-forbidden": ("bbm", {"policy.forbidden_networks": ["net-1", "net-2"]}),
    "unusable-paths": ("multi", {
        "path_models.net-2/cell-b.policy_allowed": False,
        "path_models.net-3/cell-c.path_latency_ms": 200,
        "flows.0.requested_qos.bandwidth_kbps": 0,
    }),
}

# One edit of the bbm scenario per rejection in mobsig.scenario.
INVALID_EDITS = [
    {"seed": DELETE},
    {"seed": "1"},
    {"scan_period_us": 0},
    {"cells": {}},
    {"cells": []},
    {"cells.1.cell_id": "cell-a", "cells.1.network_id": "net-1"},
    {"cells.0.cell_id": ""},
    {"cells.0.radius_m": "far"},
    {"cells.0.radius_m": float("nan")},
    {"cells.0.radius_m": 10**400},
    {"cells.0.radius_m": 0},
    {"cells.0.supports_fmip": 1},
    {"cells.0.center": [0.0]},
    {"cells.0.center": [float("inf"), 0.0]},
    {"cells.0.capacity": []},
    {"trajectory": {}},
    {"trajectory": []},
    {"trajectory.1.t_us": 0},
    {"policy.forbidden_networks": [""]},
    {"policy.min_radio_score": 2},
    {"policy.hysteresis": -1},
    {"policy.weight_radio": 0.9},
    {"path_models.net-9/cell-z": {}},
    {"path_models.net-2/cell-b": DELETE},
    {"flows.1": {"id": 1, "start_us": 0, "requested_qos": {
        "bandwidth_kbps": 1000, "max_latency_ms": 80}}},
    {"jiter_us": 5_000},
]

# Scenario files that hold no JSON object.
UNREADABLE_SCENARIOS = [b"\xff", b"{", b"[" * 100_000, b"[]"]

_HEAD = '"from":"MRRM","to":"HOLM","msg":"HOExecutionRequest"'
_ACCESS = '{"cell_id":"cell-a","network_id":"net-1","rat":"wlan"}'

# One trace per reader or field error, each exit 2.
UNREADABLE_TRACES = [
    b"\xff\n",
    b"\n\xff\n",
    b"{\n",
    b"[]\n",
    b'{"t":true,"from":"A","to":"B","msg":"M","params":{}}\n',
    b'{"t":0,"from":1,"to":"B","msg":"M","params":{}}\n',
    b'{"t":0,"from":"A","to":"B","msg":"M","params":[]}\n',
    b'{"t":0,"from":"A","to":"B","msg":"M","params":' + b"[" * 100_000 + b"}\n",
    ('{"t":0,%s,"params":{"current":null,"mbb_flag":true}}\n' % _HEAD).encode(),
    ('{"t":0,%s,"params":{"current":null,"flow":"1"}}\n' % _HEAD).encode(),
    ('{"t":0,%s,"params":{"flow":1}}\n' % _HEAD).encode(),
    ('{"t":0,%s,"params":{"current":7,"flow":1}}\n' % _HEAD).encode(),
    ('{"t":0,%s,"params":{"current":null,"flow":1,"target":null}}\n' % _HEAD).encode(),
    ('{"t":0,%s,"params":{"current":null,"flow":1,"target":%s}}\n' % (_HEAD, _ACCESS)
     + '{"t":0,"from":"HOLM","to":"MRRM","msg":"LinkAttachRequest","params":{"flow":1}}\n'
     ).encode(),
    ('{"t":0,%s,"params":{"current":null,"flow":1,"target":%s}}\n' % (_HEAD, _ACCESS)
     + '{"t":0,"from":"HOLM","to":"MRRM","msg":"HOComplete","params":{"result":"done"}}\n'
     ).encode(),
]

# A handover request answered by a successful HOComplete with no step between,
# which runs no row: exit 1.
UNCLASSIFIED_SUCCESS_TRACE = (
    '{"t":0,%s,"params":{"current":%s,"flow":1,"target":%s}}\n'
    % (_HEAD, _ACCESS, _ACCESS.replace("cell-a", "cell-b"))
    + '{"t":1,"from":"HOLM","to":"MRRM","msg":"HOComplete","params":{"result":"success"}}\n'
)

# A reply before any request, which no context takes; two requests open at
# once; then a reply without a flow id, which is ambiguous: exit 1. A blank
# line and a padded params text follow for the reader.
OVERLAPPING_TRACE = (
    '{"t":0,"from":"HOLM","to":"MRRM","msg":"HOComplete","params":{"result":"success"}}\n'
    + '{"t":0,%s,"params":{"current":null,"flow":1,"target":%s}}\n' % (_HEAD, _ACCESS)
    + '{"t":0,%s,"params":{"current":null,"flow":2,"target":%s}}\n' % (_HEAD, _ACCESS)
    + '{"t":1,"from":"MRRM","to":"HOLM","msg":"HOComplete","params":{"result":"success"}}\n'
    + '\n'
    + '{"t":2,"from":"Env","to":"Daemon","msg":"BindingAck","params":{"flow":1} }\n'
)


def _drive(cli, templates: list[str], scenario_dir: Path, out: Path) -> None:
    def main(*argv: str) -> int:
        return cli.main([str(arg) for arg in argv])

    def run(name: str, document) -> Path:
        scenario, trace = out / f"{name}.json", out / f"{name}.jsonl"
        scenario.write_text(json.dumps(document), encoding="utf-8")
        assert main("run", "--scenario", scenario, "--trace", trace,
                    "--metrics", out / f"{name}.metrics.json") == 0, name
        return trace

    def check_and_draw(trace: Path) -> list[int]:
        codes = [main("check", "--trace", trace, "--template", t) for t in templates]
        assert main("diagram", "--trace", trace) == 0
        return codes

    bundled = {name: json.loads((scenario_dir / f"{name}.json").read_text(encoding="utf-8"))
               for name in BUNDLED}
    for name, document in bundled.items():
        trace = run(name, document)
        assert check_and_draw(trace)[0] == 0, name
        slow = run(f"{name}-slow", _edited(document, {"latencies": SLOW}))
        assert check_and_draw(slow)[0] == 0, name
    for name, (base, edits) in VALID_EDITS.items():
        document = _edited(bundled[base], edits)
        codes = check_and_draw(run(name, document))
        assert codes[0] == 0 or len(document["flows"]) > 1, name
    assert main("run", "--scenario", scenario_dir / "mbb.json", "--seed", 7,
                "--trace", out / "seeded.jsonl", "--metrics", out / "seeded.json") == 0

    # The same records with json.dumps's default separators take the general
    # reader, TraceRecord.from_json, not the one for the writer's layout.
    lines = (out / "multi.jsonl").read_text(encoding="utf-8").splitlines()
    spaced = out / "spaced.jsonl"
    spaced.write_text("".join(json.dumps(json.loads(line)) + "\n" for line in lines))
    assert check_and_draw(spaced)[0] == 0

    # Every adjacent swap of two signalling records, and each one repeated.
    for name in ("mbb", "bbm", "fmip"):
        lines = (out / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
        signalling = [i for i, line in enumerate(lines) if '"msg":"AccessSetsSnapshot"' not in line]
        for i, j in zip(signalling, signalling[1:]):
            tampered = lines.copy()
            tampered[i], tampered[j] = tampered[j], tampered[i]
            (out / "tampered.jsonl").write_text("\n".join(tampered) + "\n", encoding="utf-8")
            assert main("check", "--trace", out / "tampered.jsonl") in (0, 1)
            repeated = lines[:j] + [lines[i]] + lines[j:]
            (out / "tampered.jsonl").write_text("\n".join(repeated) + "\n", encoding="utf-8")
            assert main("check", "--trace", out / "tampered.jsonl") in (0, 1)
    # A bbm and an mbb handover, each to the access it leaves.
    for name in ("mbb", "bbm"):
        lines = (out / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        handover = [record for record in records if record["msg"] == "HOExecutionRequest"][1]
        handover["params"]["target"] = handover["params"]["current"]
        tampered = "".join(json.dumps(record) + "\n" for record in records)
        (out / "tampered.jsonl").write_text(tampered, encoding="utf-8")
        assert main("check", "--trace", out / "tampered.jsonl") == 1
    # The second bbm handover's detach, re-aimed at an access its request does not name.
    lines = (out / "bbm.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    second = [i for i, record in enumerate(records) if record["msg"] == "HOExecutionRequest"][1]
    detach = next(record for record in records[second:] if record["msg"] == "LinkDetachRequest")
    detach["params"]["current"] = {"cell_id": "cell-zzz", "network_id": "net-zzz", "rat": "wlan"}
    tampered = "".join(json.dumps(record) + "\n" for record in records)
    (out / "tampered.jsonl").write_text(tampered, encoding="utf-8")
    assert main("check", "--trace", out / "tampered.jsonl") == 1
    (out / "unclassified.jsonl").write_text(UNCLASSIFIED_SUCCESS_TRACE, encoding="utf-8")
    assert main("check", "--trace", out / "unclassified.jsonl") == 1
    (out / "overlapping.jsonl").write_text(OVERLAPPING_TRACE, encoding="utf-8")
    assert main("check", "--trace", out / "overlapping.jsonl") == 1

    for index, edits in enumerate(INVALID_EDITS):
        scenario = out / f"invalid-{index}.json"
        scenario.write_text(json.dumps(_edited(bundled["bbm"], edits)), encoding="utf-8")
        assert main("run", "--scenario", scenario, "--trace", out / "x.jsonl",
                    "--metrics", out / "x.json") == 2, edits
    for index, data in enumerate(UNREADABLE_SCENARIOS):
        (out / f"unreadable-{index}.json").write_bytes(data)
        assert main("run", "--scenario", out / f"unreadable-{index}.json",
                    "--trace", out / "x.jsonl", "--metrics", out / "x.json") == 2
    assert main("run", "--scenario", out / "missing.json", "--trace", out / "x.jsonl",
                "--metrics", out / "x.json") == 2
    assert main("run", "--scenario", scenario_dir / "mbb.json", "--trace", out / "x.jsonl",
                "--metrics", out / "missing" / "x.json") == 3

    for index, data in enumerate(UNREADABLE_TRACES):
        (out / f"unreadable-{index}.jsonl").write_bytes(data)
        assert main("check", "--trace", out / f"unreadable-{index}.jsonl") == 2, data[:80]
        # A field only the checker reads is no error to the diagram.
        assert main("diagram", "--trace", out / f"unreadable-{index}.jsonl") in (0, 2)
    assert main("check", "--trace", out / "missing.jsonl") == 2
    assert main("diagram", "--trace", out / "missing.jsonl") == 2

    # Stdout that takes nothing: each command does its work, then exits 3.
    for argv in (("run", "--scenario", scenario_dir / "mbb.json", "--trace", out / "full.jsonl",
                  "--metrics", out / "full.json"),
                 ("check", "--trace", out / "full.jsonl"), ("diagram", "--trace", out / "full.jsonl")):
        with open("/dev/full", "w", encoding="utf-8") as full, contextlib.redirect_stdout(full):
            assert main(*argv) == 3, argv[0]


def _traced(drive) -> tuple[dict[str, set[int]], set[tuple[str, int]]]:
    """Run drive() under sys.settrace: the lines run in each package file,
    and the (file, first line) of each package code object entered."""
    prefix = str(PACKAGE)
    lines: dict[str, set[int]] = {}
    entered: set[tuple[str, int]] = set()
    tracers = {}

    def on_call(frame, _event, _arg):
        code = frame.f_code
        filename = code.co_filename
        if not filename.startswith(prefix):
            return None
        entered.add((filename, code.co_firstlineno))
        tracer = tracers.get(filename)
        if tracer is None:
            add = lines.setdefault(filename, set()).add

            def tracer(frame, event, _arg):
                if event == "line":
                    add(frame.f_lineno)
                return tracer

            tracers[filename] = tracer
        return tracer

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        drive()
    finally:
        sys.settrace(previous)
    return lines, entered


class _Statement:
    """One statement, or an except clause (counted=False: only an anchor for
    LINE_EXEMPT), with its span and the first line of its source."""

    __slots__ = ("module", "function", "node", "first", "last", "text", "counted")

    def __init__(self, module: str, function: str, node: ast.AST, source: list[str],
                 counted: bool = True) -> None:
        self.module, self.function, self.node, self.counted = module, function, node, counted
        decorators = getattr(node, "decorator_list", [])
        self.first = min([node.lineno] + [d.lineno for d in decorators])
        self.last = node.end_lineno
        self.text = source[node.lineno - 1].strip()

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.module, self.function, self.text)

    def within(self, other: "_Statement") -> bool:
        return other.first <= self.first and self.last <= other.last


def _statements(path: Path) -> list[_Statement]:
    """Every statement of a module that runs code, and every except clause,
    each with its enclosing function."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    found = []

    def visit(body: list[ast.stmt], scope: str, in_function: bool) -> None:
        for index, node in enumerate(body):
            if (index == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue  # a docstring
            if isinstance(node, ast.AnnAssign) and node.value is None and in_function:
                continue  # an annotation alone compiles to nothing in a function
            found.append(_Statement(path.name, scope, node, lines))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{node.name}" if scope else node.name
                visit(node.body, inner, not isinstance(node, ast.ClassDef))
                continue
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), scope, in_function)
            for handler in getattr(node, "handlers", []):
                found.append(_Statement(path.name, scope, handler, lines, counted=False))
                visit(handler.body, scope, in_function)
            for case in getattr(node, "cases", []):
                visit(case.body, scope, in_function)

    visit(ast.parse(source).body, "", False)
    return found


def _reached(statement: _Statement, lines: set[int], entered: set[tuple[str, int]]) -> bool:
    if isinstance(statement.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return (str(PACKAGE / statement.module), statement.first) in entered
    return any(statement.first <= line <= statement.last for line in lines)


def test_every_statement_is_reached_by_the_cli(tmp_path, scenario_dir, capsys):
    saved = {name: module for name, module in sys.modules.items()
             if name == "mobsig" or name.startswith("mobsig.")}
    for name in saved:
        del sys.modules[name]

    def drive() -> None:
        names = [f"mobsig.{info.name}" for info in pkgutil.iter_modules(mobsig.__path__)]
        modules = {name: importlib.import_module(name) for name in ["mobsig", *names]}
        templates = ["auto", *sorted(modules["mobsig.conformance"].TEMPLATES)]
        _drive(modules["mobsig.cli"], templates, scenario_dir, tmp_path)

    try:
        lines, entered = _traced(drive)
    finally:
        for name in [n for n in sys.modules if n == "mobsig" or n.startswith("mobsig.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    capsys.readouterr()

    statements = [s for path in sorted(PACKAGE.glob("*.py")) for s in _statements(path)]
    unreached = [s for s in statements if s.counted
                 and not _reached(s, lines.get(str(PACKAGE / s.module), set()), entered)]
    anchors = {key: [s for s in statements if s.key == key] for key in LINE_EXEMPT}
    covered = {key: [s for s in unreached if any(s.within(a) for a in anchors[key])]
               for key in LINE_EXEMPT}
    exempt = {id(s) for statements in covered.values() for s in statements}
    missing = [f"{s.module}:{s.first}: {s.text}" for s in unreached if id(s) not in exempt]
    assert not missing, "only tests reach these statements:\n" + "\n".join(missing)
    # An entry whose statements the command line starts to reach, or that are
    # deleted, leaves the list.
    stale = [key for key, statements in covered.items() if not statements]
    assert not stale, f"reached or gone: {stale}"
