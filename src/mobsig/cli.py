"""Command-line interface: run scenarios, check traces, draw sequence diagrams.

Exit codes
    run      0 success; 2 scenario invalid (no trace written); 3 simulation
             aborted at runtime (partial trace written for post-mortem), or
             an output file or stdout cannot be written.
    check    0 conformant; 1 violation found; 2 trace unreadable; 3 stdout
             cannot be written.
    diagram  0 rendered; 2 trace unreadable; 3 stdout cannot be written.

Each command writes its stdout and flushes it in one step, so an unwritable
stdout gives ``cannot write output: …`` on stderr and exit 3, not a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from operator import itemgetter

from .conformance import TEMPLATES, check_trace, load_trace
from .core import FUNCTIONAL_ENTITIES
from .scenario import ScenarioError, load_scenario
from .simkernel import Head, SimulationError, Trace
from .simulation import Simulation

_COLUMN_WIDTH = 12
_TIME_GUTTER = 12


def _shown(name: str) -> str:
    """A name as a diagram shows it: as it is when printable, else as its JSON
    string literal, so no line separator or control character reaches a row."""
    return name if name.isprintable() else json.dumps(name)


def _draw(head: Head, centers: dict[str, int], width: int) -> tuple[str, str]:
    """One head's row after its time stamp: with the line end, and as it is
    for a flow tag to follow."""
    sender, receiver, name = head
    row = [" "] * width
    for center in centers.values():
        row[center] = "|"
    src = centers[sender]
    dst = centers[receiver]
    if src == dst:
        row[src] = "*"
    else:
        for x in range(min(src, dst) + 1, max(src, dst)):
            row[x] = "-"
        if dst > src:
            row[dst - 1] = ">"
        else:
            row[dst + 1] = "<"
    text = f"  {''.join(row).rstrip()}  {_shown(name)}"
    return text.rstrip() + "\n", text


def render_diagram(trace: Trace) -> str:
    """Render a trace as a plain-text sequence diagram, one row per message.

    It reads the trace's rows and builds no record. The entity columns come
    from the trace's distinct heads (sender, receiver, name), a few dozen on
    any run, and each is drawn once, with the line end and as it is for a
    flow tag. The text is one join of shared pieces: a row is its time stamp,
    then its drawn head with the line end, or its drawn head and then its
    flow tag, each int flow id's tag made once. Records come in time order,
    so a row mostly repeats the last row's time stamp.
    """
    distinct = set(map(itemgetter(1), trace.rows()))
    seen = {sender for sender, _, _ in distinct} | {receiver for _, receiver, _ in distinct}
    columns = list(FUNCTIONAL_ENTITIES) + sorted(seen - set(FUNCTIONAL_ENTITIES))
    centers = {fe: i * _COLUMN_WIDTH + _COLUMN_WIDTH // 2 for i, fe in enumerate(columns)}
    header = " " * _TIME_GUTTER + "".join(_shown(fe).center(_COLUMN_WIDTH) for fe in columns)
    drawn = {head: _draw(head, centers, len(columns) * _COLUMN_WIDTH) for head in distinct}
    pieces = [header.rstrip() + "\n"]
    append = pieces.append
    tags: dict[int, str] = {}
    last_at = stamp = None
    for at, head, params in trace.rows():
        if at != last_at:
            last_at = at
            stamp = f"{at:>10}"
        append(stamp)
        flow = params.get("flow")
        if flow is None:
            append(drawn[head][0])
            continue
        append(drawn[head][1])
        if type(flow) is int:
            tag = tags.get(flow)
            if tag is None:
                tag = tags[flow] = f" [flow={flow}]\n"
        else:  # a bool or any other JSON value, as JSON
            tag = f" [flow={json.dumps(flow)}]\n"
        append(tag)
    return "".join(pieces)


def _write_out(text: str) -> int:
    """Write text to stdout and flush it: 0, or 3 with the error on stderr
    when stdout cannot take it."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        # Python flushes stdout again at exit: what is still buffered goes nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 3
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = load_scenario(args.scenario, seed_override=args.seed)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    simulation = Simulation(config)
    try:
        result = simulation.run()
    except SimulationError as exc:
        try:
            simulation.recorder.write(args.trace)
        except OSError as write_exc:
            print(f"cannot write partial trace: {write_exc}", file=sys.stderr)
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return 3
    try:
        simulation.recorder.write(args.trace)
        with open(args.metrics, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(result.metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 3
    totals = result.metrics["totals"]
    return _write_out(
        f"run complete: {len(result.events)} records, "
        f"{totals['count']} handovers ({totals['succeeded']} ok, {totals['failed']} failed), "
        f"final t={result.final_time_us}us\n"
    )


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        trace = load_trace(args.trace)
        # check_trace raises ValueError for a params field it reads but cannot.
        verdict = check_trace(trace, template=args.template)
    except (OSError, ValueError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    if verdict.ok:
        count = f"{len(trace)} record{'' if len(trace) == 1 else 's'}"
        return _write_out(f"conformant ({count}, template={args.template})\n")
    print(f"violation: {verdict.describe()}", file=sys.stderr)
    return 1


def _cmd_diagram(args: argparse.Namespace) -> int:
    try:
        trace = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    return _write_out(render_diagram(trace))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobsig",
        description="Deterministic simulator for multi-access handover signaling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a scenario, write trace and metrics")
    run_p.add_argument("--scenario", required=True, help="scenario JSON file")
    run_p.add_argument("--trace", required=True, help="output trace (JSON Lines)")
    run_p.add_argument("--metrics", required=True, help="output metrics JSON")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    check_p = sub.add_parser("check", help="check a trace against sequence templates")
    check_p.add_argument("--trace", required=True, help="trace file to check")
    check_p.add_argument(
        "--template",
        default="auto",
        choices=["auto"] + sorted(TEMPLATES),
        help="the step row every handover runs, or 'auto' to infer each one's"
        " (an establishment always runs its own)",
    )

    diagram_p = sub.add_parser("diagram", help="render a trace as a sequence diagram")
    diagram_p.add_argument("--trace", required=True, help="trace file to render")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "check": _cmd_check, "diagram": _cmd_diagram}
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
