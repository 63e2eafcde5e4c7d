"""The package holds what the command line reaches, and nothing more.

The test imports a fresh copy of mobsig and runs ``mobsig run``, ``check`` and
``diagram`` over the bundled scenarios, a trace in a layout other than the
writer's, a tampered trace, a trace that is not UTF-8, a trace whose params
lack a field the checker reads and an invalid scenario under
``sys.setprofile``. Every module-level function and every method
of a class defined in ``src/mobsig`` must be entered; one that runs only at
import counts as reached. Code that only the tests call belongs in the tests.
Nested functions and lambdas are not counted.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import mobsig

# Failure paths that no bundled or generated workload reaches yet.
EXEMPT = {
    "Result.failure",
    "SimulationError.__init__",
    "AmbiguousTraceError.__init__",
}

BUNDLED = ("mbb", "bbm", "fmip", "multi")


def _fresh_modules() -> dict[str, object]:
    names = [f"mobsig.{info.name}" for info in pkgutil.iter_modules(mobsig.__path__)]
    return {name: importlib.import_module(name) for name in ["mobsig", *names]}


def _defined_functions(modules) -> dict[object, str]:
    """Code object -> qualified name, for every function a package file defines."""
    package_dir = str(Path(mobsig.__file__).parent)
    found = {}

    def add(obj) -> None:
        obj = inspect.unwrap(obj)
        if inspect.isfunction(obj) and obj.__code__.co_filename.startswith(package_dir):
            found[obj.__code__] = obj.__qualname__

    for module in modules.values():
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                for attr in vars(value).values():
                    if isinstance(attr, (staticmethod, classmethod)):
                        add(attr.__func__)
                    elif isinstance(attr, property):
                        for accessor in (attr.fget, attr.fset, attr.fdel):
                            if accessor is not None:
                                add(accessor)
                    else:
                        add(attr)
            else:
                add(value)
    return found


def _run_the_cli(cli, scenario_dir: Path, out: Path) -> None:
    for name in BUNDLED:
        trace, metrics = out / f"{name}.jsonl", out / f"{name}.json"
        assert cli.main(["run", "--scenario", str(scenario_dir / f"{name}.json"),
                         "--trace", str(trace), "--metrics", str(metrics)]) == 0
        assert cli.main(["check", "--trace", str(trace)]) == 0
        assert cli.main(["diagram", "--trace", str(trace)]) == 0

    # The same records with json.dumps's default separators take the general
    # reader, TraceRecord.from_json, not the one for the writer's layout.
    spaced = out / "spaced.jsonl"
    spaced.write_text("".join(json.dumps(json.loads(line)) + "\n"
                              for line in (out / "multi.jsonl").read_text().splitlines()))
    assert cli.main(["check", "--trace", str(spaced)]) == 0
    assert cli.main(["diagram", "--trace", str(spaced)]) == 0

    # A BindingAck moved ahead of its BindingUpdate is a violation.
    lines = (out / "mbb.jsonl").read_text().splitlines()
    update = next(i for i, line in enumerate(lines) if '"msg":"BindingUpdate"' in line)
    ack = next(i for i, line in enumerate(lines) if '"msg":"BindingAck"' in line)
    lines[update], lines[ack] = lines[ack], lines[update]
    tampered = out / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    assert cli.main(["check", "--trace", str(tampered)]) == 1

    undecodable = out / "undecodable.jsonl"
    undecodable.write_bytes(b"\xff\n")
    assert cli.main(["check", "--trace", str(undecodable)]) == 2

    flowless = out / "flowless.jsonl"
    flowless.write_text('{"t":0,"from":"MRRM","to":"HOLM","msg":"HOExecutionRequest",'
                        '"params":{"current":null,"mbb_flag":true}}\n')
    assert cli.main(["check", "--trace", str(flowless)]) == 2

    invalid = json.loads((scenario_dir / "mbb.json").read_text())
    invalid["cells"][0]["radius_m"] = -1
    scenario = out / "invalid.json"
    scenario.write_text(json.dumps(invalid))
    assert cli.main(["run", "--scenario", str(scenario), "--trace", str(out / "x.jsonl"),
                     "--metrics", str(out / "x.json")]) == 2


def test_every_function_is_reached_by_the_cli(tmp_path, scenario_dir, capsys):
    saved = {name: module for name, module in sys.modules.items()
             if name == "mobsig" or name.startswith("mobsig.")}
    for name in saved:
        del sys.modules[name]
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        modules = _fresh_modules()
        _run_the_cli(modules["mobsig.cli"], scenario_dir, tmp_path)
    finally:
        sys.setprofile(None)
        for name in [n for n in sys.modules if n == "mobsig" or n.startswith("mobsig.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    capsys.readouterr()

    defined = _defined_functions(modules)
    unreached = {name for code, name in defined.items() if code not in entered}
    assert not unreached - EXEMPT, f"only tests reach {sorted(unreached - EXEMPT)}"
    # An exempt name that the CLI starts to reach, or that is deleted, leaves the list.
    assert not EXEMPT - unreached, f"reached or gone: {sorted(EXEMPT - unreached)}"
