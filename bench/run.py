"""mobsig benchmark: set-up, run, check and diagram over one generated workload.

Usage (from the root of a mobsig checkout):

    python3 bench/run.py --workload long-walk --seed 1 --seconds 30 --trace 0

The benchmark imports mobsig from ./src and drives it through its public
functions, one scenario at a time on one thread (a closed loop). It does what
the three CLI commands do, phase by phase over all scenarios of the workload:

    set-up   import mobsig; load_scenario; Simulation(config)
    run      Simulation.run; write the trace; write the metrics file
    check    load_trace; check_trace(auto)
    diagram  load_trace; render_diagram

With --trace 0 it sets up alone a few times, then makes passes (run, check,
diagram; a run sets up first) until --seconds have gone by. Each end-to-end
metric is the median over its rounds, in reference seconds (see
speed_probe). With --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics of spans.py. Every round's outputs are compared
with the first round's and, at the golden seed, with golden.json; a scenario
that raises or differs counts as failed. The last line of stdout is one JSON
object; the exit code is 0 only when no scenario failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import importlib
import json
import math
import random
import resource
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import spans  # noqa: E402

GOLDEN_PATH = BENCH_DIR / "golden.json"
WORK_DIR = Path(".bench_work")
MODULES = ("core", "simkernel", "environment", "scenario", "simulation", "conformance", "cli")
ENTITIES = ("mrrm", "holm", "path_selection", "flowmgmt", "protocols", "environment")
HANDOVER_VARIANTS = ("establishment", "mbb", "bbm", "fmip")
PHASES = ("setup", "run", "check", "diagram")

# Host speed on a shared machine jumps by tens of percent from one second to
# the next. So a fixed pure-Python job (speed_probe) runs right before and
# right after every timed round, and the round's host time is divided by the
# mean of those two probe times and multiplied by PROBE_REFERENCE_S. Times are
# reported in reference seconds: the time the round would take on a host where
# the probe takes PROBE_REFERENCE_S.
PROBE_REFERENCE_S = 0.1
PROBE_EVENTS = 8000
# Set-up rounds before the first pass; each pass sets up once more.
SETUP_ROUNDS = 5
# Check and diagram rounds per pass. They are shorter than a run round and
# noisier, so they get more samples.
READ_ROUNDS = 2


@dataclass(frozen=True)
class _ProbeEvent:
    at: int
    seq: int
    name: str
    params: dict


def speed_probe() -> float:
    """Host seconds for a fixed job shaped like mobsig's work but not using it.

    It schedules events on a heap, builds frozen dataclasses and nested dicts,
    serializes them to JSON lines and parses all the lines back, keeping them
    alive: the interpreter, allocator and memory paths that the simulator and
    the trace reader spend their time in, so both slow down together.
    """
    start = time.perf_counter()
    rng = random.Random(7)
    queue: list[tuple[int, int]] = []
    for seq in range(PROBE_EVENTS):
        heapq.heappush(queue, (rng.randrange(10**6), seq))
    lines = []
    while queue:
        at, seq = heapq.heappop(queue)
        event = _ProbeEvent(
            at, seq, "HOExecutionRequest",
            {"flow": seq % 16, "target": {"cell_id": f"cell-{seq % 200:03d}", "network_id": "net-1"},
             "score": math.hypot(at, seq)},
        )
        lines.append(json.dumps({"t": event.at, "msg": event.name, "params": event.params},
                                sort_keys=True, separators=(",", ":")))
    parsed = [json.loads(line) for line in lines]
    if len(parsed) != PROBE_EVENTS:
        raise AssertionError("speed probe lost events")
    return time.perf_counter() - start


def fresh_import(src: Path) -> tuple[SimpleNamespace, float]:
    """Import mobsig from src anew and time it; sys.modules is left as it was.

    Each round gets its own module objects, so the import cost is measured
    every time and a traced pass can patch its copy without touching others.
    """
    saved = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "mobsig"}
    for name in saved:
        del sys.modules[name]
    start = time.perf_counter()
    try:
        root = importlib.import_module("mobsig")
        modules = {name: importlib.import_module(f"mobsig.{name}") for name in MODULES}
        elapsed = time.perf_counter() - start
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "mobsig"]:
            del sys.modules[name]
        sys.modules.update(saved)
    if not Path(root.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"mobsig was imported from {root.__file__}, not from {src}")
    return SimpleNamespace(**modules), elapsed


def _sha256(path: Path) -> tuple[str, int]:
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


@dataclass
class Sample:
    """One timed round of one phase over every scenario."""

    phase: str
    host_s: float  # time inside mobsig calls only
    count: int  # records (run, diagram), records reached (check), scenarios (setup)
    probe: int  # index of the probe taken right before the round
    ref_s: float = 0.0  # host_s in reference seconds, set by Bench.normalize


@dataclass
class Output:
    """What one scenario's run produced."""

    trace: str = ""
    metrics: str = ""
    records: int = 0
    trace_bytes: int = 0
    names: Counter = field(default_factory=Counter)
    totals: dict = field(default_factory=dict)


class Bench:
    """Runs timed rounds of one workload and checks every output they make."""

    def __init__(self, src: Path, scenarios: list[Path], out_dir: Path, golden: dict | None) -> None:
        self.src = src
        self.scenarios = scenarios
        self.out_dir = out_dir
        self.golden = golden
        self.m: SimpleNamespace | None = None
        self.tracer: spans.Tracer | None = None
        self.samples: list[Sample] = []
        self.probes: list[float] = []  # seconds, in the order taken
        self.outputs: dict[str, Output] = {}  # from the first run round
        self.verdicts: dict[str, str] = {}  # from the first check round
        self.last_outputs: dict[str, Output] = {}
        self.last_reached: dict[str, int] = {}  # records the last check got through
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # -- speed probes ------------------------------------------------------------

    def probe(self) -> None:
        gc.collect()  # so neither the probe nor the next round pays for old garbage
        self.probes.append(speed_probe())

    def normalize(self) -> None:
        """Give every sample its reference time, from the probes on either side of it."""
        for sample in self.samples:
            around = self.probes[sample.probe:sample.probe + 2]
            sample.ref_s = sample.host_s * PROBE_REFERENCE_S / (sum(around) / len(around))

    # -- rounds ------------------------------------------------------------------

    def _each(self, step) -> float:
        """Apply step to every scenario; a scenario that raises is a failure, not a crash."""
        host = 0.0
        for path in self.scenarios:
            self.attempted += 1
            problems = len(self.problems)
            try:
                host += step(path)
            except Exception:
                self.fail(path, traceback.format_exc())
            self.failed += len(self.problems) > problems
        return host

    def fail(self, path: Path, problem: str) -> None:
        self.problems.append(f"{path.stem}: {problem.strip()}")

    def _record(self, phase: str, host: float, count: int) -> None:
        self.samples.append(Sample(phase, host, count, probe=len(self.probes) - 1))

    def _wrap(self, name, fn):
        return fn if self.tracer is None else self.tracer.wrap(name, fn)

    def _files(self, path: Path) -> tuple[Path, Path]:
        return self.out_dir / f"{path.stem}.jsonl", self.out_dir / f"{path.stem}.metrics.json"

    def setup_round(self) -> dict[Path, object]:
        """Import mobsig, then load and wire every scenario; returns the simulations."""
        self.m, host = fresh_import(self.src)
        if self.tracer is not None:
            spans.install(self.tracer, self.m)
        sims = {}
        setup = self._wrap("phase.setup", lambda path: self.m.simulation.Simulation(
            self.m.scenario.load_scenario(str(path))))

        def step(path):
            t0 = time.perf_counter()
            sims[path] = setup(path)
            return time.perf_counter() - t0

        host += self._each(step)
        self._record("setup", host, len(sims))
        return sims

    def run_round(self) -> None:
        """Set up and run every scenario, writing its trace and metrics files."""
        sims = self.setup_round()
        outputs: dict[str, Output] = {}

        def execute(sim, trace_path, metrics_path):
            result = sim.run()
            sim.recorder.write(str(trace_path))
            with open(metrics_path, "w", encoding="utf-8") as handle:
                json.dump(result.metrics, handle, indent=2, sort_keys=True)
                handle.write("\n")
            return result

        execute = self._wrap("phase.run", execute)

        def step(path):
            trace_path, metrics_path = self._files(path)
            t0 = time.perf_counter()
            result = execute(sims.pop(path), trace_path, metrics_path)
            elapsed = time.perf_counter() - t0
            out = Output(records=len(result.records), totals=result.metrics["totals"])
            out.names = Counter(record.name for record in result.records)
            out.trace, out.trace_bytes = _sha256(trace_path)
            out.metrics, _ = _sha256(metrics_path)
            outputs[path.stem] = out
            self._compare_output(path, out)
            return elapsed

        host = self._each(step)
        self.last_outputs = outputs
        if not self.outputs:
            self.outputs = outputs
        self._record("run", host, sum(o.records for o in outputs.values()))

    def check_round(self) -> None:
        reached: dict[str, int] = {}

        def check(trace_path):
            records = self.m.conformance.load_trace(str(trace_path))
            return len(records), self.m.conformance.check_trace(records, "auto")

        check = self._wrap("phase.check", check)

        def step(path):
            t0 = time.perf_counter()
            count, verdict = check(self._files(path)[0])
            elapsed = time.perf_counter() - t0
            text = "ok" if verdict.ok else f"{verdict.rule}@{verdict.index}"
            expected = self.verdicts.setdefault(path.stem, text)
            if text != expected:
                self.fail(path, f"verdict {text} differs from the first check's {expected}")
            if count != self.outputs[path.stem].records:
                self.fail(path, f"trace reads back as {count} records, run made {self.outputs[path.stem].records}")
            reached[path.stem] = count if verdict.ok else verdict.index + 1
            return elapsed

        host = self._each(step)
        self.last_reached = reached
        self._record("check", host, sum(reached.values()))

    def diagram_round(self) -> None:
        drawn = 0
        diagram = self._wrap("phase.diagram", lambda trace_path: self.m.cli.render_diagram(
            self.m.conformance.load_trace(str(trace_path))))

        def step(path):
            nonlocal drawn
            t0 = time.perf_counter()
            text = diagram(self._files(path)[0])
            elapsed = time.perf_counter() - t0
            records = self.outputs[path.stem].records
            if text.count("\n") != records + 1:
                self.fail(path, f"diagram has {text.count(chr(10))} lines for {records} records")
            drawn += records
            return elapsed

        host = self._each(step)
        self._record("diagram", host, drawn)

    def _compare_output(self, path: Path, out: Output) -> None:
        if self.golden is not None:
            expected = self.golden.get(path.stem)
            if expected is None:
                self.fail(path, "scenario missing from golden.json")
            elif (out.trace, out.metrics) != (expected["trace"], expected["metrics"]):
                self.fail(path, "trace or metrics digest differs from golden.json")
        first = self.outputs.get(path.stem)
        if first is not None and (out.trace, out.metrics) != (first.trace, first.metrics):
            self.fail(path, "trace or metrics differ from the first run in this process")

    # -- schedules ---------------------------------------------------------------

    def pass_(self, read_rounds: int = READ_ROUNDS) -> list[Sample]:
        """One run round, then read_rounds check and diagram rounds; returns their samples.

        A probe follows every round. The run round sets up first, so a pass
        gives a set-up sample too.
        """
        if not self.probes:
            self.probe()
        before = len(self.samples)
        for round_ in (self.run_round,) + (self.check_round, self.diagram_round) * read_rounds:
            round_()
            self.probe()
        return self.samples[before:]

    def measure(self, seconds: float) -> None:
        """Set-up alone a few times, then whole passes until seconds have passed."""
        deadline = time.perf_counter() + seconds
        self.probe()
        for _ in range(SETUP_ROUNDS):
            self.setup_round()
            self.probe()
        while True:
            self.pass_()
            if time.perf_counter() >= deadline:
                break
        self.normalize()

    def digest(self) -> str:
        """One SHA-256 over every scenario's trace and metrics digests, in run order."""
        h = hashlib.sha256()
        for path in self.scenarios:
            out = self.outputs.get(path.stem, Output())
            h.update(f"{path.stem} {out.trace} {out.metrics}\n".encode())
        return h.hexdigest()


def end_to_end(bench: Bench) -> dict[str, tuple[float, str, int]]:
    """(value, unit, sample count) of each end-to-end metric."""
    by_phase = {p: [s for s in bench.samples if s.phase == p] for p in PHASES}

    def rate(phase):
        return median([s.count / s.ref_s for s in by_phase[phase]]), "1/s", len(by_phase[phase])

    return {
        "setup_s": (median([s.ref_s for s in by_phase["setup"]]), "s", len(by_phase["setup"])),
        "run_records_per_s": rate("run"),
        # Records the checker got through before its verdict: all of them on a
        # conformant trace, up to the offending record otherwise.
        "check_records_per_s": rate("check"),
        "diagram_records_per_s": rate("diagram"),
        # One pass over the workload: the median time of each phase, summed.
        "wall_s": (sum(median([s.ref_s for s in by_phase[p]]) for p in PHASES), "s",
                   min(len(v) for v in by_phase.values())),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def per_layer(tracer: spans.Tracer, scale: float, outputs: dict[str, Output],
              reached: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass; scale turns host into reference seconds."""
    agg = tracer.aggregate()

    def get(name):
        return agg.get(name, spans.SpanTotals())

    def seconds(ns):
        return ns / 1e9 * scale

    names = Counter()
    totals = Counter()
    for out in outputs.values():
        names.update(out.names)
        totals["failed"] += out.totals["failed"]
        totals.update(out.totals["by_variant"])
    records = sum(o.records for o in outputs.values())
    ticks = get("mrrm.tick").count
    cycles = names["ConstraintRequest"]
    run_phase = get("phase.run")
    out = {
        "environment.scan_calls": (get("environment.scan").count, "count"),
        "environment.scan_s": (seconds(get("environment.scan").total_ns), "s"),
        "environment.scans_per_tick": (get("environment.scan").count / ticks if ticks else 0.0, "ratio"),
        "environment.position_calls": (get("environment.position").count, "count"),
        "environment.position_s": (seconds(get("environment.position").total_ns), "s"),
        "core.params_calls": (get("core.params").count, "count"),
        "core.params_s": (seconds(get("core.params").total_ns), "s"),
        "simkernel.record_s": (seconds(get("simkernel.record").self_ns), "s"),
        "simkernel.serialize_s": (seconds(get("simkernel.serialize").total_ns), "s"),
        "simkernel.write_s": (seconds(get("simkernel.write").self_ns), "s"),
        "simkernel.records": (records, "count"),
        "simkernel.trace_bytes": (sum(o.trace_bytes for o in outputs.values()), "B"),
        "simkernel.events": (
            sum(get(f"{m}.handle").count + get(f"{m}.callback").count for m in ENTITIES) + ticks,
            "count",
        ),
        "simkernel.dispatch_s": (seconds(get("simkernel.dispatch").self_ns), "s"),
    }
    for module in ENTITIES:
        own = get(f"{module}.handle").self_ns + get(f"{module}.callback").self_ns
        if module == "mrrm":
            own += get("mrrm.tick").self_ns
        out[f"{module}.self_s"] = (seconds(own), "s")
        out[f"{module}.deliveries"] = (get(f"{module}.handle").count, "count")
    out["environment.callback_s"] = (seconds(get("environment.callback").total_ns), "s")
    out["mrrm.tick_s"] = (seconds(get("mrrm.tick").total_ns), "s")
    out["mrrm.cycles"] = (cycles, "count")
    out["mrrm.cycle_yield"] = (names["HOExecutionRequest"] / cycles if cycles else 0.0, "ratio")
    for variant in HANDOVER_VARIANTS:
        out[f"holm.handovers.{variant}"] = (totals[variant], "count")
    out.update(
        {
            "holm.failed": (totals["failed"], "count"),
            "scenario.validate_s": (seconds(get("scenario.validate").total_ns), "s"),
            "simulation.wire_s": (seconds(get("simulation.wire").total_ns), "s"),
            "simulation.metrics_s": (seconds(get("simulation.metrics").total_ns), "s"),
            "conformance.parse_s": (seconds(get("conformance.parse").total_ns), "s"),
            "conformance.segment_s": (seconds(get("conformance.segment").total_ns), "s"),
            "conformance.check_s": (seconds(get("conformance.check").total_ns), "s"),
            "conformance.contexts": (tracer.contexts, "count"),
            "conformance.records_reached_ratio": (sum(reached.values()) / records if records else 0.0, "ratio"),
            "cli.diagram_s": (seconds(get("cli.diagram").total_ns), "s"),
            # Share of the traced run phase that named layers and the kernel
            # loop account for; the rest is the metrics-file dump and glue.
            "trace.run_attributed_ratio": (
                1 - run_phase.self_ns / run_phase.total_ns if run_phase.total_ns else 0.0, "ratio",
            ),
        }
    )
    return out


def traced_metrics(bench: Bench, seconds: float, spans_path: Path) -> dict[str, tuple[float, str]]:
    """Alternate untraced and traced passes; per-layer medians over the traced ones."""
    deadline = time.perf_counter() + seconds
    plain = [bench.pass_(read_rounds=1)]
    traced = []
    while not traced or time.perf_counter() < deadline:
        bench.tracer = spans.Tracer()
        samples = bench.pass_(read_rounds=1)
        traced.append((bench.tracer, samples, bench.last_outputs, bench.last_reached))
        bench.tracer = None
        plain.append(bench.pass_(read_rounds=1))
    bench.normalize()

    runs = []
    for tracer, samples, outputs, reached in traced:
        scale = sum(s.ref_s for s in samples) / sum(s.host_s for s in samples)
        runs.append(per_layer(tracer, scale, outputs, reached))
    metrics = {name: (median([run[name][0] for run in runs]), unit) for name, (_v, unit) in runs[0].items()}
    traced_wall = [sum(s.ref_s for s in samples) for _t, samples, _o, _r in traced]
    plain_wall = [sum(s.ref_s for s in samples) for samples in plain]
    metrics["trace.overhead_ratio"] = (median(traced_wall) / median(plain_wall), "ratio")
    records = sum(o.records for o in bench.outputs.values())
    checks = [s for samples in plain for s in samples if s.phase == "check"]
    metrics["conformance.records_per_s"] = (median([records / s.ref_s for s in checks]), "1/s")
    traced[-1][0].dump(spans_path)
    return metrics


def load_golden(workload: str, seed: int) -> dict | None:
    if not GOLDEN_PATH.is_file():
        return None
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    if golden["seed"] != seed:
        return None
    return golden["workloads"].get(workload)


def write_golden(workload: str, seed: int, outputs: dict[str, Output]) -> None:
    doc = {"seed": seed, "workloads": {}}
    if GOLDEN_PATH.is_file():
        doc = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        if doc["seed"] != seed:
            doc = {"seed": seed, "workloads": {}}
    doc["workloads"][workload] = {
        stem: {"trace": out.trace, "metrics": out.metrics} for stem, out in outputs.items()
    }
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden", action="store_true",
        help="record this seed's digests in golden.json instead of checking them",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = Path("src").resolve()
    if not (src / "mobsig" / "__init__.py").is_file():
        print("bench: run from the root of a mobsig checkout (src/mobsig not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    label = f"{args.workload}-seed{args.seed}"
    scenarios = gen.write_workload(
        args.workload, args.seed, WORK_DIR / label / "scenarios", bundled_dir=src / "mobsig" / "scenarios"
    )
    out_dir = WORK_DIR / label / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    golden = None if args.write_golden else load_golden(args.workload, args.seed)
    bench = Bench(src, scenarios, out_dir, golden)

    if args.write_golden:
        bench.pass_()
        if bench.problems:
            print("\n".join(bench.problems), file=sys.stderr)
            return 1
        write_golden(args.workload, args.seed, bench.outputs)
        print(f"wrote {args.workload} digests for seed {args.seed} to {GOLDEN_PATH}")
        return 0

    if args.trace:
        layer = traced_metrics(bench, args.seconds, WORK_DIR / "spans" / f"{label}.json")
    else:
        bench.measure(args.seconds)

    nonconformant = sum(verdict != "ok" for verdict in bench.verdicts.values())
    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    golden_state = "no golden digests for this seed" if golden is None else "checked against golden.json"
    print(
        f"workload {args.workload} seed {args.seed}: {len(scenarios)} scenarios, "
        f"{sum(o.records for o in bench.outputs.values())} records, {len(bench.samples)} rounds, "
        f"median probe {median(bench.probes):.4g} s (reference {PROBE_REFERENCE_S} s)"
    )
    print(f"digest {args.workload} seed={args.seed} sha256={bench.digest()} ({golden_state})")
    print(f"failed_ratio {bench.failed / bench.attempted:.4f} ({bench.failed}/{bench.attempted} scenario rounds)")
    print(
        f"nonconformant_ratio {nonconformant / len(scenarios):.4f} "
        f"({nonconformant}/{len(scenarios)} traces rejected by check_trace(auto))"
    )

    if args.trace:
        layer["bench.failed_ratio"] = (bench.failed / bench.attempted, "ratio")
        layer["conformance.nonconformant_ratio"] = (nonconformant / len(scenarios), "ratio")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        for name, (value, unit) in layer.items():
            print(f"  {name:36s} {value:>16.6g} {unit}")
    else:
        metrics = {}
        for name, (value, unit, samples) in end_to_end(bench).items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:24s} {value:>14.6g} {unit:4s} (median of {samples})")

    result = {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
