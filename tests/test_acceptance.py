"""End-to-end acceptance checks for the simulator and conformance toolkit.

Each test verifies one headline guarantee of the package against the bundled
scenarios and prints a single [PASS]/[FAIL] line naming the guarantee, so a
full run doubles as an acceptance report.
"""

from __future__ import annotations

import copy
import json
import time
from contextlib import contextmanager

from order_oracle import accepts
from support import trace_line

from mobsig.conformance import (
    SEQUENCE_NAMES,
    TEMPLATES,
    check,
    check_trace,
    infer_variant,
    segment_contexts,
)
from mobsig.scenario import parse_scenario
from mobsig.simulation import Simulation

RUNTIME_BUDGET_S = 1.0
HANDOVER_SCENARIOS = ("mbb", "bbm", "fmip")


@contextmanager
def criterion(label):
    """Print one acceptance-report line; FAIL on any escaping exception."""
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def names_of(records):
    return [record.name for record in records]


def split_contexts(records):
    """Return (establishment slice, handover slices) for one bundled trace."""
    contexts = segment_contexts(records)
    assert infer_variant(contexts[0].records) == "establishment"
    return contexts[0], contexts[1:]


def access_key(rendered):
    return f"{rendered['network_id']}/{rendered['cell_id']}"


def handover_endpoints(slice_records):
    """Old and new access keys as signaled inside one handover slice."""
    old = new = None
    for record in slice_records:
        if record.name == "LinkSwitchRequest":
            return access_key(record.params["current"]), access_key(record.params["target"])
        if record.name == "LinkDetachRequest":
            old = access_key(record.params["current"])
        if record.name == "LinkAttachRequest":
            new = access_key(record.params["target"])
    assert old is not None and new is not None
    return old, new


def expected_interruption_us(config, variant, old_key, new_key):
    """Interruption oracle built only from scenario latencies."""
    cells = {cell.access.key: cell for cell in config.cells}
    if variant == "mbb":
        return 0
    if variant == "bbm":
        return (
            cells[old_key].link_teardown_us
            + cells[new_key].link_setup_us
            + cells[new_key].locator_config_us
            + config.binding_rtt_us
        )
    if variant == "fmip":
        return cells[old_key].link_teardown_us + cells[new_key].link_setup_us
    raise AssertionError(f"no oracle for variant {variant!r}")


def test_bundled_traces_conform_to_their_templates(bundled_configs):
    with criterion("bundled handover traces replay conformant signaling sequences"):
        for name in HANDOVER_SCENARIOS:
            started = time.perf_counter()
            result = Simulation(bundled_configs[name]).run()
            elapsed = time.perf_counter() - started
            assert elapsed < RUNTIME_BUDGET_S, f"{name} took {elapsed:.2f}s"

            verdict = check_trace(result.records)
            assert verdict.ok, f"{name}: {verdict.describe()}"

            establishment, handovers = split_contexts(result.records)
            assert check(establishment.records, TEMPLATES["establishment"]).ok
            assert len(handovers) == 1
            slice_records = handovers[0].records
            assert infer_variant(slice_records) == name
            assert check(slice_records, TEMPLATES[name]).ok

            order = names_of(slice_records)
            if name == "mbb":
                assert order.index("LinkAttachResponse") < order.index("LinkDetachRequest")
                assert order.index("BindingAck") < order.index("LinkDetachRequest")
            elif name == "bbm":
                assert order.index("LinkDetachResponse") < order.index("LinkAttachRequest")
            else:
                assert "LinkAttachRequest" not in order
                switch = order.index("LinkSwitchRequest")
                assert order.index("ProxyRouterAdvertisement") < order.index("FastBindingUpdate")
                assert order.index("FastBindingUpdate") < order.index("FastBindingAck")
                assert order.index("FastBindingAck") < switch
                assert order.index("PathSelected") < switch
                assert order.index("TunnelStart") < order.index("TunnelStop")


def test_interruption_times_match_configured_latencies(bundled_configs, bundled_results):
    with criterion("measured interruption equals the latency-sum oracle for every variant"):
        measured = {}
        for name in HANDOVER_SCENARIOS:
            config = bundled_configs[name]
            result = bundled_results[name]
            entries = [e for e in result.metrics["handovers"] if e["variant"] == name]
            assert len(entries) == 1
            entry = entries[0]
            assert entry["result"] == "success"

            _, handovers = split_contexts(result.records)
            old_key, new_key = handover_endpoints(handovers[0].records)
            oracle = expected_interruption_us(config, name, old_key, new_key)
            assert entry["interruption_us"] == oracle, (
                f"{name}: measured {entry['interruption_us']}us, oracle {oracle}us"
            )
            measured[name] = entry["interruption_us"]

        assert measured["mbb"] == 0
        assert 0 < measured["fmip"] < measured["bbm"]


def test_access_sets_stay_nested_across_scans(bundled_results):
    with criterion("access sets stay nested (active within candidates within detected)"):
        result = bundled_results["multi"]

        totals = result.metrics["totals"]
        handover_count = totals["count"] - totals["by_variant"].get("establishment", 0)
        assert handover_count >= 3
        assert totals["failed"] == 0
        assert check_trace(result.records).ok

        snapshots = [r for r in result.records if r.name == "AccessSetsSnapshot"]
        assert snapshots, "expected scan-cycle snapshots in the trace"
        for record in snapshots:
            aas = set(record.params["aas"])
            cas = set(record.params["cas"])
            das = set(record.params["das"])
            scanned = set(record.params["scanned"])
            assert aas <= cas <= das <= scanned, record.params
        assert any(len(record.params["das"]) >= 2 for record in snapshots)


def test_checker_matches_order_oracle_on_adjacent_swaps(bundled_results):
    with criterion("sequence checker agrees with the brute-force acceptor on every adjacent "
                   "swap, drop and repeat"):
        accepted = rejected = 0
        for result in bundled_results.values():
            for context in segment_contexts(result.records):
                row = infer_variant(context.records)
                template = TEMPLATES[row]
                base = context.records
                assert check(base, template).ok and accepts(base, row)

                # Index 0 is the request, which opens the context.
                mutants = {}
                for i in range(1, len(base)):
                    mutants[f"drop {i}"] = base[:i] + base[i + 1:]
                    mutants[f"repeat {i}"] = base[:i + 1] + base[i:]
                    if i + 1 < len(base):
                        mutants[f"swap {i}<->{i + 1}"] = base[:i] + [base[i + 1], base[i]] + base[i + 2:]
                for mutation, mutated in mutants.items():
                    checker_ok = check(mutated, template).ok
                    oracle_ok = accepts(mutated, row)
                    assert checker_ok == oracle_ok, (
                        f"{mutation} of {names_of(base)}: checker={checker_ok} oracle={oracle_ok}"
                    )
                    if checker_ok:
                        accepted += 1
                    else:
                        rejected += 1
        assert accepted > 0 and rejected > 0


def test_seed_determinism_and_jitter_variation(bundled_configs, bundled_results, scenario_path):
    with criterion("equal seeds reproduce traces byte for byte; jittered seeds differ but conform"):
        for name, result in bundled_results.items():
            rerun = Simulation(bundled_configs[name]).run()
            assert [trace_line(r) for r in rerun.records] == [
                trace_line(r) for r in result.records
            ], f"{name}: rerun with the same seed diverged"

        document = json.loads(scenario_path("mbb").read_text())
        document["jitter_us"] = 15000
        lines = {}
        for seed in (101, 202):
            config = parse_scenario(copy.deepcopy(document), seed_override=seed)
            jittered = Simulation(config).run()
            assert check_trace(jittered.records).ok
            lines[seed] = [trace_line(r) for r in jittered.records]

            replay = Simulation(
                parse_scenario(copy.deepcopy(document), seed_override=seed)
            ).run()
            assert [trace_line(r) for r in replay.records] == lines[seed]
        assert lines[101] != lines[202]


def test_establishment_is_handover_without_teardown(bundled_results):
    with criterion("flow establishment reuses the handover sequence minus link teardown"):
        establishment, handovers = split_contexts(bundled_results["mbb"].records)
        assert check(establishment.records, TEMPLATES["establishment"]).ok

        establishment_names = set(names_of(establishment.records)) & SEQUENCE_NAMES
        handover_names = set(names_of(handovers[0].records)) & SEQUENCE_NAMES
        assert establishment_names == handover_names - {
            "LinkDetachRequest",
            "LinkDetachResponse",
        }


EXPECTED_PARAMS = {
    "ConstraintRequest": frozenset({"candidates", "flow"}),
    "ConstraintResponse": frozenset({"ratings"}),
    "HOExecutionRequest": frozenset({"current", "flow", "mbb_flag", "target"}),
    "HOComplete": frozenset({"result"}),
    "LinkAttachRequest": frozenset({"flow", "requested_qos", "target"}),
    "LinkAttachResponse": frozenset({"granted_qos", "result"}),
    "LinkSwitchRequest": frozenset({"current", "flow", "requested_qos", "target"}),
    "LinkSwitchResponse": frozenset({"granted_qos", "result"}),
    "LinkDetachRequest": frozenset({"current", "flow"}),
    "LinkDetachResponse": frozenset({"result"}),
    "PathSelect": frozenset({"flow", "fmip_flag", "target"}),
    "PathSelected": frozenset({"new_locator", "result"}),
    "AccessFlowSetup": frozenset({"flow", "requested_qos"}),
    "AccessFlowSetupResponse": frozenset({"granted_qos", "result"}),
    "HandoverOccurred": frozenset({"flow", "provided_qos"}),
    "HandoverOccurredResponse": frozenset({"result"}),
}


def test_primitive_parameter_coverage(bundled_results):
    with criterion("every service primitive appears in the bundled traces with its exact parameter set"):
        seen = set()
        for result in bundled_results.values():
            for record in result.records:
                expected = EXPECTED_PARAMS.get(record.name)
                if expected is None:
                    continue
                seen.add(record.name)
                if record.params.get("result") == "failure":
                    expected = expected | {"reason"}
                assert set(record.params) == set(expected), (
                    f"{record.name}: got {sorted(record.params)}, want {sorted(expected)}"
                )
        assert seen == set(EXPECTED_PARAMS), sorted(set(EXPECTED_PARAMS) - seen)
