"""Trace segmentation, variant inference, and template checking."""

import dataclasses
import hashlib
import importlib.util
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobsig import holm
from mobsig.conformance import (
    CHECKED_NAMES,
    LABELS,
    SEQUENCE_NAMES,
    TEMPLATES,
    AmbiguousTraceError,
    check,
    check_trace,
    infer_variant,
    load_trace,
    parse_trace,
    segment_contexts,
)
from mobsig.scenario import parse_scenario
from mobsig.simkernel import TraceRecord
from mobsig.simulation import Simulation

import check_oracle
from support import as_trace, json_values, load_generator, trace_line
from variant_oracle import reference_variant

ACC_A = {"cell_id": "cell-a", "network_id": "net-1", "rat": "wlan"}
ACC_B = {"cell_id": "cell-b", "network_id": "net-2", "rat": "cellular"}
QOS = {"bandwidth_kbps": 1000, "max_latency_ms": 80}
LOC_B = {"access": ACC_B, "address": "net-2/cell-b/1", "kind": "care_of"}


def rec(name, **params):
    return TraceRecord(at=0, sender="X", receiver="Y", name=name, params=params)


def mbb_slice(flow=1):
    return [
        rec("HOExecutionRequest", flow=flow, current=ACC_A, target=ACC_B, mbb_flag=True),
        rec("LinkAttachRequest", flow=flow, target=ACC_B, requested_qos=QOS),
        rec("LinkAttachResponse", result="success", granted_qos=QOS),
        rec("PathSelect", flow=flow, target=ACC_B, fmip_flag=False),
        rec("PathSelected", result="success", new_locator=LOC_B),
        rec("BindingUpdate", flow=flow, locator=LOC_B),
        rec("BindingAck", flow=flow, result="success"),
        rec("LinkDetachRequest", flow=flow, current=ACC_A),
        rec("LinkDetachResponse", result="success"),
        rec("HOComplete", result="success"),
    ]


def bbm_slice(flow=1):
    return [
        rec("HOExecutionRequest", flow=flow, current=ACC_A, target=ACC_B, mbb_flag=False),
        rec("LinkDetachRequest", flow=flow, current=ACC_A),
        rec("LinkDetachResponse", result="success"),
        rec("LinkAttachRequest", flow=flow, target=ACC_B, requested_qos=QOS),
        rec("LinkAttachResponse", result="success", granted_qos=QOS),
        rec("PathSelect", flow=flow, target=ACC_B, fmip_flag=False),
        rec("PathSelected", result="success", new_locator=LOC_B),
        rec("BindingUpdate", flow=flow, locator=LOC_B),
        rec("BindingAck", flow=flow, result="success"),
        rec("HOComplete", result="success"),
    ]


def fmip_slice(flow=1):
    return [
        rec("HOExecutionRequest", flow=flow, current=ACC_A, target=ACC_B, mbb_flag=False),
        rec("ProxyRouterAdvertisement", flow=flow, target=ACC_B),
        rec("FastBindingUpdate", flow=flow, current=ACC_A, target=ACC_B),
        rec("FastBindingAck", flow=flow, result="success"),
        rec("PathSelect", flow=flow, target=ACC_B, fmip_flag=True),
        rec("PathSelected", result="success", new_locator=LOC_B),
        rec("LinkSwitchRequest", flow=flow, current=ACC_A, target=ACC_B, requested_qos=QOS),
        rec("LinkSwitchResponse", result="success", granted_qos=QOS),
        rec("TunnelStart", flow=flow, current=ACC_A, target=ACC_B),
        rec("BindingUpdate", flow=flow, locator=LOC_B),
        rec("BindingAck", flow=flow, result="success"),
        rec("TunnelStop", flow=flow),
        rec("HOComplete", result="success"),
    ]


def establishment_slice(flow=1):
    return [
        rec("HOExecutionRequest", flow=flow, current=None, target=ACC_A, mbb_flag=True),
        rec("LinkAttachRequest", flow=flow, target=ACC_A, requested_qos=QOS),
        rec("LinkAttachResponse", result="success", granted_qos=QOS),
        rec("PathSelect", flow=flow, target=ACC_A, fmip_flag=False),
        rec("PathSelected", result="success", new_locator=LOC_B),
        rec("BindingUpdate", flow=flow, locator=LOC_B),
        rec("BindingAck", flow=flow, result="success"),
        rec("HOComplete", result="success"),
    ]


class TestVocabulary:
    def test_sequence_vocabulary_size(self):
        assert len(SEQUENCE_NAMES) == 17
        assert CHECKED_NAMES - SEQUENCE_NAMES == {"HandoverOccurred", "HandoverOccurredResponse"}

    def test_rating_and_setup_traffic_is_outside_the_vocabulary(self):
        outside = {
            "ConstraintRequest",
            "ConstraintResponse",
            "AccessFlowSetup",
            "AccessFlowSetupResponse",
        }
        assert not outside & CHECKED_NAMES

    def test_no_template_constrains_the_context_delimiter(self):
        """HOExecutionRequest opens a context; a chain that held it would be circular."""
        for template in TEMPLATES.values():
            assert "HOExecutionRequest" not in template.chain
        assert not any("HOExecutionRequest" in pair for pair in LABELS)


class TestParseTrace:
    def test_blank_lines_are_skipped_but_count_for_numbering(self):
        lines = ['{"t":1,"from":"a","to":"b","msg":"M","params":{}}', "", " ",
                 '{"t":2,"from":"a","to":"b","msg":"N","params":{}}']
        records = parse_trace(lines)
        assert [r.name for r in records] == ["M", "N"]
        assert [r.line for r in records] == [1, 4]

    def test_bad_line_is_reported_with_its_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_trace(['{"t":1,"from":"a","to":"b","msg":"M","params":{}}', "{broken"])

    def test_load_trace_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(trace_line(r) + "\n" for r in mbb_slice()))
        records = load_trace(str(path))
        assert [r.name for r in records] == [r.name for r in mbb_slice()]
        assert records[0].line == 1

    @pytest.mark.parametrize("layout", ["writer", "spaced"])
    def test_params_nested_too_deeply_are_a_line_error(self, layout):
        depth = 100_000
        line = ('{"t":0,"from":"a","to":"b","msg":"M","params":{"x":'
                + "[" * depth + "]" * depth + "}}")
        if layout == "spaced":  # not the writer's layout: TraceRecord.from_json reads it
            line = line.replace('"t":0', '"t": 0')
        good = '{"t":1,"from":"a","to":"b","msg":"M","params":{}}'
        with pytest.raises(ValueError, match=r"^line 2: params nested too deeply$"):
            parse_trace([good, line])

    def test_a_raw_cr_inside_a_record_keeps_it_whole(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b'{"t":0,"from":"a","to":"b","msg":"M","params":{}\r}\n'
                         b'{"t":1,"from":"a","to":"b","msg":"N",\r"params":{"k":1}}\r\n')
        records = load_trace(str(path))
        assert [(r.at, r.name, r.params, r.line) for r in records] == [
            (0, "M", {}, 1), (1, "N", {"k": 1}, 2)
        ]

    def test_crlf_line_ends_read_as_lf_ones(self, tmp_path, bundled_results):
        for name, result in bundled_results.items():
            # The last line is blank, as CRLF makes it a lone "\r\n".
            text = "".join(trace_line(r) + "\n" for r in result.records) + "\n"
            lf, crlf = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.crlf.jsonl"
            lf.write_bytes(text.encode())
            crlf.write_bytes(text.replace("\n", "\r\n").encode())
            expected, records = load_trace(str(lf)), load_trace(str(crlf))
            assert repr(list(records)) == repr(list(expected))
            assert check_trace(records) == check_trace(expected)


def _read_line_by_line(lines):
    """parse_trace as it called TraceRecord.from_json on every line, kept as the reference."""
    return [TraceRecord.from_json(line, lineno)
            for lineno, line in enumerate(lines, start=1) if line.strip()]


def _outcome(read, lines):
    # repr, not ==, because a NaN in params never equals itself.
    try:
        return repr(list(read(lines)))
    except ValueError as exc:
        return f"ValueError: {exc}"


params_objects = st.dictionaries(st.text(max_size=4), json_values, max_size=3)


@st.composite
def writer_lines(draw):
    """The canonical line of a record, in the writer's layout, its params
    drawn from a pool that the lines of one example share, so that params
    texts repeat."""
    pool = draw(st.shared(st.lists(params_objects, min_size=1, max_size=3), key="params"))
    return trace_line(TraceRecord(
        at=draw(st.integers() | st.integers(-10**20, 10**20)),
        sender=draw(st.sampled_from(["MRRM", "Env"]) | st.text(max_size=4)),
        receiver=draw(st.sampled_from(["HOLM", 'a"b', "a\\b", "\x01"]) | st.text(max_size=4)),
        name=draw(st.sampled_from(["HOComplete", "\u00e9t\u00e9"]) | st.text(max_size=4)),
        params=draw(st.sampled_from(pool)),
    ))


def _with_head(line, head):
    return head + line[line.index(',"from":'):]


def _with_params(line, text):
    return line[: line.index('"params":') + 9] + text


def _to_before_from(line):
    record = json.loads(line)
    return json.dumps({key: record[key] for key in ("t", "to", "from", "msg", "params")},
                      separators=(",", ":"))


# Each turns a line in the writer's layout into one that may or may not be.
MUTATIONS = {
    "spaced": lambda line: line.replace('":', '": ').replace(',"', ', "'),
    "raw-non-ascii": lambda line: json.dumps(json.loads(line), ensure_ascii=False,
                                             separators=(",", ":")),
    "escapes": lambda line: line.replace('"msg":"', '"msg":"\\"\\u00e9'),
    "raw-control": lambda line: line.replace('"from":"', '"from":"\t'),
    "crlf": lambda line: line + "\r\n",
    "trailing-space": lambda line: line + " \t\n",
    "trailing-form-feed": lambda line: line + "\x0c",
    "trailing-data": lambda line: line + " x",
    "trailing-brace": lambda line: line + "}",
    "trailing-object": lambda line: line + " {}",
    "duplicate-t": lambda line: line[:-1] + ',"t":5}',
    "bom": lambda line: "\ufeff" + line,
    "leading-space": lambda line: " " + line,
    "truncated": lambda line: line[: len(line) // 2],
    "duplicate-param": lambda line: _with_params(line, '{"a":1,"a":[NaN]}}'),
    "list-params": lambda line: _with_params(line, "[1] }"),
    "padded-params": lambda line: _with_params(line, ' {"b":-Infinity} }'),
    "float-t": lambda line: _with_head(line, '{"t":1.0'),
    "bool-t": lambda line: _with_head(line, '{"t":true'),
    "minus-zero-t": lambda line: _with_head(line, '{"t":-0'),
    "leading-zero-t": lambda line: _with_head(line, '{"t":007'),
    "19-digit-t": lambda line: _with_head(line, '{"t":' + "9" * 19),
    "25-digit-t": lambda line: _with_head(line, '{"t":-' + "1" * 25),
    # Each moves one of the reader's separators, `,"from":` and `,"params":`,
    # or adds a copy of one where the writer puts none.
    "separators-in-params": lambda line: _with_params(line, '{"a":1,"from":2,"params":{}}}'),
    "to-before-from": _to_before_from,
    "escaped-separator-in-msg": lambda line: line.replace('"msg":"', '"msg":"\\",\\"from\\":'),
}

trace_lines = (
    writer_lines()
    | st.builds(lambda line, mutate: mutate(line), writer_lines(),
                st.sampled_from(list(MUTATIONS.values())))
    | st.sampled_from(["", " ", "\n", "\x0c", "\u2028", "{broken"])
    | st.text(max_size=8)
)


@given(st.lists(trace_lines, max_size=8))
def test_parse_trace_reads_every_line_as_from_json_does(lines):
    assert _outcome(parse_trace, lines) == _outcome(_read_line_by_line, lines)


@pytest.mark.parametrize("mutate", list(MUTATIONS.values()), ids=list(MUTATIONS))
@settings(max_examples=20)
@given(line=writer_lines())
def test_parse_trace_reads_each_mutation_as_from_json_does(mutate, line):
    lines = [line, mutate(line)]
    assert _outcome(parse_trace, lines) == _outcome(_read_line_by_line, lines)


def test_equal_params_texts_share_one_dict_within_a_call_only():
    shared = {"flow": 1, "result": "success"}
    lines = [trace_line(rec("HOComplete", **shared)), trace_line(rec("BindingAck", flow=2)),
             trace_line(rec("PathSelected", **shared))]
    first = parse_trace(lines)
    assert first[0].params is first[2].params
    assert first[0].params is not first[1].params
    assert parse_trace(lines)[0].params is not first[0].params


def _keys(value):
    """Every dict key in value, at any depth."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _keys(item)


def test_equal_params_keys_share_one_string_within_a_call_only():
    # Keys of two characters or more: CPython keeps one object for each
    # one-character string, whoever decodes it.
    lines = [trace_line(rec("HOComplete", flow=1, result={"flow": 2, "access": [{"flow": 3}]})),
             trace_line(rec("BindingAck", flow=2, access={"result": "ok"})),
             trace_line(rec("PathSelected", result=[{"access": {"flow": 4}}]))]
    first, second = parse_trace(lines), parse_trace(lines)
    keys = [key for record in first for key in _keys(record.params)]
    assert set(keys) == {"flow", "result", "access"}
    assert len({id(key) for key in keys}) == 3
    again = {key: id(key) for record in second for key in _keys(record.params)}
    assert all(id(key) != again[key] for key in keys)


@pytest.mark.parametrize("params", [' {"ab":1}', '{"ab":1} ', '{"ab":1}\t\r\n'])
def test_padded_params_text_reads_as_from_json_does(params):
    line = '{"t":0,"from":"a","to":"b","msg":"M","params":' + params + "}"
    [record] = parse_trace([line])
    assert record.params == {"ab": 1}
    assert repr(record) == repr(TraceRecord.from_json(line, 1))


JSON_WHITESPACE = st.text(alphabet=" \t\r\n", max_size=3)


@settings(max_examples=30)
@given(pads=st.data())
def test_padded_params_of_bundled_lines_read_as_unpadded(bundled_results, pads):
    """Whitespace around a params value, or before the line's closing brace,
    reads to an equal record, so the trace keeps its verdict."""
    name = pads.draw(st.sampled_from(sorted(bundled_results)))
    plain = [trace_line(record) for record in bundled_results[name].records]
    padded = list(plain)
    for index in pads.draw(st.sets(st.integers(0, len(plain) - 1), min_size=1, max_size=8)):
        head, params_text = plain[index].split('"params":', 1)
        before, after = pads.draw(JSON_WHITESPACE), pads.draw(JSON_WHITESPACE)
        padded[index] = f'{head}"params":{before}{params_text[:-1]}{after}}}'
    expected, records = parse_trace(plain), parse_trace(padded)
    assert list(records) == list(expected)
    assert check_trace(records) == check_trace(expected)


def test_records_with_equal_heads_share_their_strings(scenario_path):
    """On a simulated multi-flow trace, each distinct head is one set of objects,
    and so is each distinct params text."""
    document = json.loads(scenario_path("multi").read_text(encoding="utf-8"))
    document["flows"] = [dict(document["flows"][0], id=flow, start_us=(flow - 1) * 500_000)
                         for flow in (1, 2, 3, 4)]
    result = Simulation(parse_scenario(document)).run()
    records = parse_trace(trace_line(record) for record in result.records)
    assert {record.params.get("flow") for record in records} >= {1, 2, 3, 4}
    heads = [(record.sender, record.receiver, record.name) for record in records]
    assert len({tuple(map(id, head)) for head in heads}) == len(set(heads))
    # One dict per distinct params text, and one string per distinct key.
    texts = {json.dumps(record.params, sort_keys=True, separators=(",", ":")) for record in records}
    assert len({id(record.params) for record in records}) == len(texts)
    keys = [key for record in records for key in _keys(record.params)]
    assert len({id(key) for key in keys}) == len(set(keys))
    # The trace is in time order, so records with equal `t` follow each other.
    assert len({id(record.at) for record in records}) == len({record.at for record in records})


class TestSegmentation:
    def test_new_request_for_the_same_flow_closes_the_span(self):
        records = establishment_slice(flow=1) + mbb_slice(flow=1)
        contexts = segment_contexts(as_trace(records))
        assert len(contexts) == 2
        assert [len(c.entries) for c in contexts] == [8, 10]
        assert [c.entries[0][0] for c in contexts] == [0, 8]

    def test_flow_ids_route_records_to_their_own_context(self):
        records = [
            rec("HOExecutionRequest", flow=1, current=ACC_A, target=ACC_B, mbb_flag=True),
            rec("HOExecutionRequest", flow=2, current=ACC_A, target=ACC_B, mbb_flag=True),
            rec("BindingUpdate", flow=2, locator=LOC_B),
            rec("BindingUpdate", flow=1, locator=LOC_B),
        ]
        contexts = segment_contexts(as_trace(records))
        assert [c.records[0].params["flow"] for c in contexts] == [1, 2]
        assert [index for index, _ in contexts[0].entries] == [0, 3]
        assert [index for index, _ in contexts[1].entries] == [1, 2]

    def test_flowless_record_with_one_open_context_is_attributed(self):
        contexts = segment_contexts(as_trace(mbb_slice()))
        assert len(contexts) == 1
        assert len(contexts[0].entries) == 10

    def test_flowless_record_with_two_open_contexts_is_ambiguous(self):
        records = [
            rec("HOExecutionRequest", flow=1, current=ACC_A, target=ACC_B, mbb_flag=True),
            rec("HOExecutionRequest", flow=2, current=ACC_A, target=ACC_B, mbb_flag=True),
            rec("HOComplete", result="success"),
        ]
        with pytest.raises(AmbiguousTraceError, match="^line 3: HOComplete carries no flow id"):
            segment_contexts(parse_trace(trace_line(record) for record in records))

    def test_traffic_before_any_request_is_ignored(self):
        records = [rec("BindingAck", flow=1, result="success")] + mbb_slice()
        contexts = segment_contexts(as_trace(records))
        assert len(contexts) == 1
        assert contexts[0].entries[0][0] == 1

    def test_non_vocabulary_records_are_invisible(self):
        records = mbb_slice()
        records.insert(3, rec("AccessSetsSnapshot", flow=1))
        records.insert(0, rec("ConstraintRequest", flow=1, candidates=[]))
        contexts = segment_contexts(as_trace(records))
        assert len(contexts[0].entries) == 10


class TestInferVariant:
    def test_fmip_vocabulary_wins(self):
        assert infer_variant(fmip_slice()) == "fmip"

    def test_establishment_by_null_current(self):
        assert infer_variant(establishment_slice()) == "establishment"

    def test_detach_first_is_bbm(self):
        assert infer_variant(bbm_slice()) == "bbm"

    def test_attach_first_is_mbb(self):
        assert infer_variant(mbb_slice()) == "mbb"

    def test_no_link_commands_is_unclassified(self):
        records = [
            rec("HOExecutionRequest", flow=1, current=ACC_A, target=ACC_B, mbb_flag=True),
            rec("HOComplete", result="success"),
        ]
        assert infer_variant(records) == "unclassified"

    def test_a_new_row_is_classified_from_the_step_table_alone(self, monkeypatch):
        """A Proxy Mobile IPv6 style row, with no terminal binding update."""
        monkeypatch.setitem(holm.STEPS, "pmip", ("attach", "path", "detach"))
        spec = importlib.util.find_spec("mobsig.conformance")
        fresh = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fresh)
        pmip = [record for record in notified(mbb_slice)
                if record.name not in ("BindingUpdate", "BindingAck")]
        assert fresh.infer_variant(pmip) == "pmip"
        assert fresh.infer_variant(notified(mbb_slice)) == "mbb"
        assert fresh.check_trace(as_trace(establishment_slice() + pmip + notified(mbb_slice))).ok
        assert infer_variant(pmip) == "mbb"  # the checker as imported knows no pmip row


@st.composite
def slow_walks(draw):
    """A one-flow walk along 3 to 8 cells, each handover style, mostly with
    signalling so slow that the walk outruns it: handovers then fail, and
    later ones find their current link gone."""
    cells = draw(st.integers(3, 8))
    fmip = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    latency = draw(st.sampled_from([5_000, 1_500_000, 4_000_000]))
    walk_us = draw(st.integers(1, 6)) * 1_000_000 * cells
    docs = [{"cell_id": f"cell-{i}", "network_id": f"net-{i}", "rat": "wlan",
             "center": [i * 800.0, 0.0], "radius_m": 600.0, "link_setup_us": 50_000,
             "link_teardown_us": 10_000, "locator_config_us": 100_000,
             "supports_fmip": fmip[i], "capacity": QOS} for i in range(cells)]
    return {
        "seed": draw(st.integers(0, 1000)),
        "scan_period_us": 500_000,
        "jitter_us": draw(st.sampled_from([0, 20_000])),
        "cells": docs,
        "trajectory": [{"t_us": 0, "xy": [0.0, 0.0]},
                       {"t_us": walk_us, "xy": [(cells - 1) * 800.0, 0.0]}],
        "policy": {"forbidden_networks": [], "min_radio_score": 0.05, "hysteresis": 0.1,
                   "weight_radio": 0.5, "weight_path": 0.5, "mbb_capable": draw(st.booleans())},
        "path_models": {f"net-{i}/cell-{i}": {"bottleneck_bandwidth_kbps": 2000,
                                              "path_latency_ms": 40, "policy_allowed": True}
                        for i in range(cells)},
        "latencies": {"binding_rtt_us": latency, "fmip_oneway_us": latency},
        "flows": [{"id": 1, "requested_qos": QOS, "start_us": 0}],
    }


@settings(max_examples=100, deadline=None)
@given(document=slow_walks())
def test_auto_classifies_every_context_as_the_reference_does(document):
    result = Simulation(parse_scenario(document)).run()
    for context in segment_contexts(result.records):
        assert infer_variant(context.records) == reference_variant(context.records)


def notified(slice_fn):
    """A canonical slice; a handover's gets the notification exchange appended."""
    records = slice_fn()
    if slice_fn is not establishment_slice:
        records += [
            rec("HandoverOccurred", flow=1, provided_qos=QOS),
            rec("HandoverOccurredResponse", result="success"),
        ]
    return records


# Each template's canonical slice.
CANONICAL = {
    "establishment": establishment_slice,
    "mbb": mbb_slice,
    "bbm": bbm_slice,
    "fmip": fmip_slice,
}


class TestDerivedTemplates:
    def test_rules_are_known_allowed_and_forward_in_their_chain(self):
        """Each chain is its canonical slice, and each labelled (expected, got)
        pair is two checked names, the second later in some chain."""
        assert set(CANONICAL) == set(TEMPLATES)
        chains = []
        for name, template in TEMPLATES.items():
            assert list(template.chain) == [r.name for r in notified(CANONICAL[name])[1:]]
            assert template.chain[template.steps] == "HOComplete"
            chains.append(template.chain)
        for expected, got in LABELS:
            assert {expected, got} <= CHECKED_NAMES
            assert "HOComplete" != got  # a success there is missing:<expected>
            assert any(expected in chain and got in chain[chain.index(expected) + 1:]
                       for chain in chains), (expected, got)

    @pytest.mark.parametrize("variant", ["establishment", "mbb", "bbm", "fmip"])
    def test_every_step_boundary_has_a_label(self, variant):
        records = notified(CANONICAL[variant])
        # Index 0 is HOExecutionRequest, which opens the context and is not ordered.
        for i in range(1, len(records) - 1):
            swapped = list(records)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            before, after = records[i].name, records[i + 1].name
            rule = f"missing:{before}" if after == "HOComplete" else LABELS[before, after]
            verdict = check(swapped, TEMPLATES[variant])
            assert (verdict.index, verdict.rule) == (i, rule), (before, after)


class TestCheck:
    @pytest.mark.parametrize(
        "slice_fn, template",
        [
            (mbb_slice, "mbb"),
            (bbm_slice, "bbm"),
            (fmip_slice, "fmip"),
            (establishment_slice, "establishment"),
        ],
    )
    def test_canonical_slices_conform(self, slice_fn, template):
        verdict = check(slice_fn(), TEMPLATES[template])
        assert verdict.ok, verdict.describe()

    def test_swapped_pair_names_the_violated_rule(self):
        records = mbb_slice()
        records[5], records[6] = records[6], records[5]  # ack before update
        verdict = check(records, TEMPLATES["mbb"])
        assert not verdict.ok
        assert verdict.rule == "binding-update-before-ack"
        assert verdict.index == 5
        assert verdict.record.name == "BindingAck"
        assert "BindingAck precedes BindingUpdate" in verdict.detail
        assert verdict.describe().endswith("[template=mbb rule=binding-update-before-ack]")

    def test_forbidden_name_is_flagged(self):
        records = mbb_slice()
        records.insert(4, rec("TunnelStart", flow=1, current=ACC_A, target=ACC_B))
        verdict = check(records, TEMPLATES["mbb"])
        assert not verdict.ok
        assert verdict.rule == "forbidden:TunnelStart"

    def test_earliest_violation_wins(self):
        records = mbb_slice()
        records[5], records[6] = records[6], records[5]
        records.insert(1, rec("TunnelStop", flow=1))
        verdict = check(records, TEMPLATES["mbb"])
        assert verdict.rule == "forbidden:TunnelStop"
        assert verdict.index == 1

    def test_double_attach_breaks_alternation(self):
        records = [
            rec("HOExecutionRequest", flow=1, current=ACC_A, target=ACC_B, mbb_flag=True),
            rec("LinkAttachRequest", flow=1, target=ACC_B, requested_qos=QOS),
            rec("LinkAttachRequest", flow=1, target=ACC_B, requested_qos=QOS),
        ]
        verdict = check(records, TEMPLATES["mbb"])
        assert not verdict.ok
        assert (verdict.index, verdict.rule) == (2, "unexpected:LinkAttachRequest")
        assert verdict.detail == "LinkAttachRequest precedes LinkAttachResponse"

    def test_detach_of_a_preexisting_link_is_exempt_from_alternation(self):
        # bbm tears down a link it never attached in this context
        verdict = check(bbm_slice(), TEMPLATES["bbm"])
        assert verdict.ok

    def test_vocabulary_filter_ignores_interleaved_traffic(self):
        records = mbb_slice()
        records.insert(2, rec("AccessFlowSetup", flow=1, requested_qos=QOS))
        records.insert(7, rec("ConstraintResponse", ratings=[]))
        assert check_trace(as_trace(records), "mbb").ok

    def test_empty_slice_conforms(self):
        """The request alone is the empty prefix of every chain."""
        for records in (mbb_slice()[:1], establishment_slice()[:1]):
            for template in TEMPLATES.values():
                assert check(records, template).ok
            assert check_trace(as_trace(records)).ok

    @pytest.mark.parametrize("slice_fn", [mbb_slice, bbm_slice, fmip_slice, establishment_slice])
    def test_a_failed_completion_may_end_the_steps_anywhere(self, slice_fn):
        records = slice_fn()
        failed = rec("HOComplete", result="failure", reason="link_lost")
        for end in range(1, len(records)):
            assert check_trace(as_trace(records[:end] + [failed])).ok, end

    def test_nothing_may_follow_a_failed_completion(self):
        records = mbb_slice()[:3] + [
            rec("HOComplete", result="failure", reason="link_lost"),
            rec("PathSelect", flow=1, target=ACC_B, fmip_flag=False),
        ]
        verdict = check_trace(as_trace(records))
        assert (verdict.index, verdict.rule) == (4, "unexpected:PathSelect")
        assert verdict.detail == "PathSelect comes after the mbb sequence ends"

    def test_nothing_may_follow_the_chain(self):
        records = notified(mbb_slice) + [rec("HandoverOccurredResponse", result="success")]
        verdict = check(records, TEMPLATES["mbb"])
        assert (verdict.index, verdict.rule) == (12, "unexpected:HandoverOccurredResponse")

    def test_a_bbm_handover_without_its_binding_is_missing_it(self):
        """A success needs every step message before it, the binding exchange too."""
        records = [r for r in bbm_slice() if r.name not in ("BindingUpdate", "BindingAck")]
        verdict = check_trace(as_trace(records))
        assert not verdict.ok
        assert (verdict.index, verdict.rule, verdict.template) == (7, "missing:BindingUpdate", "bbm")
        assert verdict.detail == "HOComplete reports success before BindingUpdate"

    @pytest.mark.parametrize("slice_fn", [mbb_slice, bbm_slice, fmip_slice])
    def test_a_handover_to_its_current_access_is_same_access(self, slice_fn):
        records = readdressed(slice_fn(), ACC_B, ACC_B)
        verdict = check_trace(as_trace(records))
        assert (verdict.ok, verdict.index, verdict.rule) == (False, 0, "same-access")
        assert verdict.detail == "HOExecutionRequest targets its current access net-2/cell-b"

    def test_an_unclassified_context_conforms_only_as_the_empty_prefix(self):
        request = rec("HOExecutionRequest", flow=1, current=ACC_A, target=ACC_B, mbb_flag=False)
        assert infer_variant([request]) == "unclassified"
        assert check_trace(as_trace([request, rec("HOComplete", result="failure",
                                                  reason="link_lost")])).ok
        verdict = check_trace(as_trace([request, rec("HOComplete", result="success")]))
        assert (verdict.template, verdict.index, verdict.rule) == (
            "unclassified", 1, "unexpected:HOComplete")
        verdict = check_trace(as_trace([request, rec("BindingAck", flow=1, result="success")]))
        assert (verdict.template, verdict.rule) == ("unclassified", "forbidden:BindingAck")


# Records that segment_contexts keeps out of every context.
UNCHECKED = (
    rec("AccessSetsSnapshot", flow=1, aas=[], cas=[], das=[], scanned=[]),
    rec("ConstraintRequest", flow=1, candidates=[ACC_A, ACC_B]),
    rec("ConstraintResponse", ratings=[]),
    rec("AccessFlowSetup", flow=1, requested_qos=QOS),
    rec("LinkUp", access="net-2/cell-b", flow=1, granted_qos=QOS),
)


@settings(max_examples=200)
@given(
    slice_fn=st.sampled_from([mbb_slice, bbm_slice, fmip_slice, establishment_slice]),
    swap=st.integers(0, 12),
    mixed_in=st.lists(st.tuples(st.integers(0, 12), st.sampled_from(UNCHECKED)), max_size=6),
)
def test_unchecked_records_mixed_into_a_slice_change_no_verdict(slice_fn, swap, mixed_in):
    assert not CHECKED_NAMES & {record.name for record in UNCHECKED}
    records = slice_fn()
    if swap + 1 < len(records):
        records[swap], records[swap + 1] = records[swap + 1], records[swap]
    mixed = list(records)
    for position, record in mixed_in:
        mixed.insert(position, record)
    for template in ["auto", *TEMPLATES]:
        expected = check_trace(as_trace(records), template)
        verdict = check_trace(as_trace(mixed), template)
        assert (verdict.ok, verdict.template, verdict.rule, verdict.detail) == (
            expected.ok, expected.template, expected.rule, expected.detail)
        if not verdict.ok:
            assert verdict.record == expected.record
            assert mixed[verdict.index] is records[expected.index]


class TestCheckTrace:
    def test_auto_checks_each_context_with_its_variant(self):
        records = establishment_slice() + mbb_slice() + fmip_slice()
        verdict = check_trace(as_trace(records))
        assert verdict.ok and verdict.template == "auto"

    def test_auto_reports_global_indices(self):
        records = establishment_slice() + mbb_slice()
        records[13], records[14] = records[14], records[13]  # swap inside the mbb span
        verdict = check_trace(as_trace(records))
        assert not verdict.ok
        assert verdict.index == 13
        assert verdict.rule == "binding-update-before-ack"

    def test_named_template_applies_to_every_context(self):
        verdict = check_trace(as_trace(establishment_slice() + mbb_slice()), template="fmip")
        assert not verdict.ok
        assert verdict.rule.startswith("forbidden:LinkAttach")
        assert verdict.index == 9  # in the handover: the establishment runs its own row

    @pytest.mark.parametrize("template", sorted(TEMPLATES))
    def test_an_establishment_runs_its_own_row_under_every_template(self, template):
        assert check_trace(as_trace(establishment_slice() + CANONICAL[template]()),
                           template=template).ok
        records = establishment_slice()
        del records[5]  # its BindingUpdate
        verdict = check_trace(as_trace(records), template=template)
        assert (verdict.template, verdict.rule) == ("establishment", "binding-update-before-ack")

    def test_unknown_template_name(self):
        with pytest.raises(KeyError):
            check_trace(as_trace(mbb_slice()), template="imaginary")

    def test_ambiguity_is_a_verdict_not_a_crash(self):
        records = [
            rec("HOExecutionRequest", flow=1, current=ACC_A, target=ACC_B, mbb_flag=True),
            rec("HOExecutionRequest", flow=2, current=ACC_A, target=ACC_B, mbb_flag=True),
            rec("HOComplete", result="success"),
        ]
        for template in ("auto", "mbb"):
            verdict = check_trace(as_trace(records), template=template)
            assert not verdict.ok
            assert verdict.rule == "ambiguous-attribution"

    def test_ambiguity_names_its_location_once(self, tmp_path):
        records = [
            rec("HOExecutionRequest", flow=1, current=ACC_A, target=ACC_B, mbb_flag=True),
            rec("HOExecutionRequest", flow=2, current=ACC_A, target=ACC_B, mbb_flag=True),
            rec("HOComplete", result="success"),
        ]
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(trace_line(r) + "\n" for r in records), encoding="utf-8")
        text = check_trace(load_trace(str(path))).describe()
        assert text.startswith("line 3: HOComplete carries no flow id")
        assert text.count("line 3") == 1

    def test_a_rule_end_on_both_sides_of_the_other_is_flagged(self):
        # The first BindingUpdate precedes the ack, as the chain asks; the
        # second follows it, where the chain goes on to the teardown.
        records = mbb_slice()
        records.insert(7, rec("BindingUpdate", flow=1, locator=LOC_B))
        for line, record in enumerate(records, start=1):
            record.line = line
        verdict = check_trace(as_trace(records))
        assert not verdict.ok
        assert verdict.describe() == (
            "line 8: BindingUpdate precedes LinkDetachRequest"
            " [template=mbb rule=unexpected:BindingUpdate]"
        )

    def test_line_numbers_surface_in_descriptions(self):
        records = mbb_slice()
        records[5], records[6] = records[6], records[5]
        for offset, record in enumerate(records):
            record.line = offset + 1
        verdict = check_trace(as_trace(records))
        assert verdict.describe().startswith("line 6:")

    def test_bundled_traces_conform(self, bundled_results):
        for name, result in bundled_results.items():
            verdict = check_trace(result.records)
            assert verdict.ok, f"{name}: {verdict.describe()}"


# The access fields of the chain messages, each of which must be its
# request's field of the same name.
CHAINED_ACCESS_FIELDS = {
    "LinkAttachRequest": ("target",),
    "LinkSwitchRequest": ("current", "target"),
    "LinkDetachRequest": ("current",),
    "PathSelect": ("target",),
    "ProxyRouterAdvertisement": ("target",),
    "FastBindingUpdate": ("current", "target"),
    "TunnelStart": ("current", "target"),
}

# An access that no bundled or generated scenario holds.
ELSEWHERE = {"cell_id": "cell-zzz", "network_id": "net-zzz", "rat": "wlan"}


def reaimed(record, field, access):
    """A copy of `record` whose `field` is `access`; the params stay unshared."""
    return dataclasses.replace(record, params={**record.params, field: access})


def other_accesses(access, request):
    """Accesses that are not `access`: one of no scenario, one that differs
    only in its cell_id, one that differs only in its network_id, and the
    request's other access where it has one."""
    others = [ELSEWHERE, {**access, "cell_id": "cell-zzz"}, {**access, "network_id": "net-zzz"}]
    others += [value for value in (request.params["current"], request.params["target"])
               if value is not None and (value["network_id"], value["cell_id"])
               != (access["network_id"], access["cell_id"])]
    return others


class TestAccessMismatch:
    """Every chain message acts on its request's accesses."""

    @pytest.mark.parametrize("slice_fn", [mbb_slice, bbm_slice, fmip_slice, establishment_slice])
    def test_each_reaimed_field_of_a_canonical_slice_is_named(self, slice_fn):
        records = notified(slice_fn)
        for index, record in enumerate(records):
            for field in CHAINED_ACCESS_FIELDS.get(record.name, ()):
                tampered = records.copy()
                tampered[index] = reaimed(record, field, ACC_C)
                verdict = check_trace(as_trace(tampered))
                assert (verdict.ok, verdict.index, verdict.rule) == (
                    False, index, f"access-mismatch:{record.name}.{field}")
                assert verdict.record == tampered[index]
                assert verdict.detail == (
                    f"{record.name}'s {field} net-3/cell-c is not its request's")

    def test_accesses_compare_by_network_and_cell(self):
        # An equal access in another object, and one that differs in its rat
        # alone, are the request's access.
        records = bbm_slice()
        records[1] = reaimed(records[1], "current", dict(ACC_A))
        records[3] = reaimed(records[3], "target", {**ACC_B, "rat": "wlan"})
        assert check_trace(as_trace(records)).ok
        for edit in ({"cell_id": "cell-z"}, {"network_id": "net-z"}):
            records[5] = reaimed(records[5], "target", {**ACC_B, **edit})
            verdict = check_trace(as_trace(records))
            assert (verdict.index, verdict.rule) == (5, "access-mismatch:PathSelect.target")

    def test_an_order_violation_before_a_mismatch_wins(self):
        records = bbm_slice()
        records[3], records[4] = records[4], records[3]
        records[5] = reaimed(records[5], "target", ACC_C)
        verdict = check_trace(as_trace(records))
        assert (verdict.index, verdict.rule) == (3, "attach-request-before-response")

    @pytest.mark.parametrize("name, field", [
        (name, field) for name, fields in CHAINED_ACCESS_FIELDS.items() for field in fields])
    def test_a_chained_access_field_is_read_as_an_access(self, name, field):
        records = {"LinkAttachRequest": mbb_slice, "LinkSwitchRequest": fmip_slice,
                   "LinkDetachRequest": bbm_slice, "PathSelect": mbb_slice,
                   "ProxyRouterAdvertisement": fmip_slice, "FastBindingUpdate": fmip_slice,
                   "TunnelStart": fmip_slice}[name]()
        index = next(i for i, record in enumerate(records) if record.name == name)
        for value, problem in (("net-2/cell-b", f"{name}'s '{field}' needs an access object"),
                               (None, f"{name}'s '{field}' needs an access object")):
            records[index] = reaimed(records[index], field, value)
            with pytest.raises(ValueError, match=problem):
                check_trace(as_trace(records))
        del records[index].params[field]
        with pytest.raises(ValueError, match=f"{name} has no '{field}'"):
            check_trace(as_trace(records))

    def test_every_reaimed_access_field_of_a_simulated_trace_is_rejected(self, bundled_results,
                                                                          reader_traces):
        """Each context of the bundled traces and of the long walk under slow
        signalling (thousands of contexts, most of them failed handovers),
        with one access field of one chain message re-aimed, fails at that
        field."""
        traces = {name: result.records for name, result in bundled_results.items()}
        traces["slow-signalling"] = load_trace(str(reader_traces["slow-signalling"]))
        mutated = set()
        for name, records in traces.items():
            assert check_trace(records).ok, name
            whole = name in bundled_results  # small enough to check whole per mutant
            for context in segment_contexts(records):
                slice_records = context.records
                for position, (index, record) in enumerate(context.entries[1:], start=1):
                    for field in CHAINED_ACCESS_FIELDS.get(record.name, ()):
                        for access in other_accesses(record.params[field], slice_records[0]):
                            tampered, at = (records, index) if whole else (slice_records, position)
                            tampered = list(tampered)
                            tampered[at] = mutant = reaimed(record, field, access)
                            verdict = check_trace(as_trace(tampered))
                            assert (verdict.ok, verdict.index, verdict.rule) == (
                                False, at, f"access-mismatch:{record.name}.{field}"
                            ), (name, record.line, access)
                            assert verdict.record == mutant
                            mutated.add((record.name, field))
        assert mutated == {(name, field) for name, fields in CHAINED_ACCESS_FIELDS.items()
                           for field in fields}


# The accesses a generated context may use. A context whose current and target
# keys are equal has the names of one whose keys differ, but it may break link
# alternation where the other does not.
ACC_C = {"cell_id": "cell-c", "network_id": "net-3", "rat": "wlan"}
ACCESSES = (ACC_A, ACC_B, ACC_C)


def readdressed(records, current, target):
    """Fresh records with the names of `records`, each top-level ACC_A field
    set to `current` and each ACC_B field to `target`."""
    swap = {id(ACC_A): current, id(ACC_B): target}
    return [rec(record.name, **{key: swap.get(id(value), value)
                                for key, value in record.params.items()})
            for record in records]


@st.composite
def repeated_contexts(draw):
    """One flow's trace of 1 to 8 contexts drawn from 1 to 3 shapes, so that
    contexts repeat a name sequence on other accesses. A shape is a canonical
    slice, maybe notified, with maybe one record after the request swapped
    with the next, repeated or dropped: many pass auto, many fail."""
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        slice_fn = draw(st.sampled_from([mbb_slice, bbm_slice, fmip_slice, establishment_slice]))
        records = notified(slice_fn) if draw(st.booleans()) else slice_fn()
        at = draw(st.integers(1, len(records) - 1))
        edit = draw(st.sampled_from(["none", "swap", "repeat", "drop"]))
        if edit == "swap" and at + 1 < len(records):
            records[at], records[at + 1] = records[at + 1], records[at]
        elif edit == "repeat":
            records.insert(at, records[at])
        elif edit == "drop":
            del records[at]
        shapes.append(records)
    trace = []
    for _ in range(draw(st.integers(1, 8))):
        shape = draw(st.sampled_from(shapes))
        current, target = draw(st.sampled_from(ACCESSES)), draw(st.sampled_from(ACCESSES))
        trace += readdressed(shape, current, target)
    return trace


def _seen(verdict):
    """What a verdict tells, its record included."""
    return (verdict.ok, verdict.template, verdict.rule, verdict.index, verdict.detail,
            verdict.record)


def _context_of(trace, index):
    """The slice of the context that holds the record at trace index `index`."""
    return next(context.records for context in segment_contexts(trace)
                if any(at == index for at, _ in context.entries))


@settings(max_examples=300, deadline=None)
@given(trace=repeated_contexts())
def test_auto_rejects_what_the_reference_rejects(trace):
    trace = as_trace(trace)
    if not check_oracle.check_trace(trace, "auto").ok:
        assert not check_trace(trace, "auto").ok


@settings(max_examples=300, deadline=None)
@given(trace=repeated_contexts())
def test_a_named_row_rejects_what_the_reference_rejects_outside_establishments(trace):
    """The reference forced a named template onto an establishment too."""
    trace = as_trace(trace)
    for choice in TEMPLATES:
        expected = check_oracle.check_trace(trace, choice)
        if expected.ok or _context_of(trace, expected.index)[0].params["current"] is None:
            continue
        assert not check_trace(trace, choice).ok, choice


@settings(max_examples=40, deadline=None)
@given(document=slow_walks())
def test_check_and_check_trace_give_the_reference_verdicts(document):
    """On simulated traces, where failed handovers abound, every verdict under
    auto and under a named row but fmip is the reference's, record and
    index included; the reference applied fmip to establishments too."""
    records = Simulation(parse_scenario(document)).run().records
    for choice in ("auto", "bbm", "establishment", "mbb"):
        assert _seen(check_trace(records, choice)) == _seen(check_oracle.check_trace(records, choice))


# The SHA-256 over (file, template choice, ok, template, rule, index, detail,
# record line) of check_trace's verdict under each choice, on every trace
# named below. A file is named as bench/run.py names its output, under its
# workload's directory, and the slowed traces under slow/.
VERDICTS_SHA256 = "12a7bb900a212f01ac25cf1b45ade15f3362a9e40aebd984f3746d276d900241"


def test_checker_verdicts_match_their_pinned_hash(generated_runs):
    """The verdicts on the seed-1 traces of the three bench workloads and on
    the long walk and multiflow-dense under slow signalling, whose thousands
    of failed and prefix contexts repeat a few name sequences, hash to the
    pinned digest. Under auto, bbm, establishment and mbb each verdict is
    also the reference's, record and index included; under fmip the two
    differ, as the reference forced a named template onto establishment
    contexts too, where the walk runs the establishment row."""
    traces = {(workload, f"{name}.jsonl"): run.trace for workload in load_generator().WORKLOADS
              for name, run in generated_runs(workload).items()}
    for workload, name in (("long-walk", "slow-signalling"),
                           ("multiflow-dense", "multiflow-slow-signalling")):
        traces["slow", f"{name}.jsonl"] = generated_runs(workload, slow=True)[workload].trace
    digest = hashlib.sha256()
    for file in sorted(traces):
        records = load_trace(str(traces[file]))
        for choice in ["auto", *sorted(TEMPLATES)]:
            verdict = check_trace(records, choice)
            if choice != "fmip":
                assert _seen(verdict) == _seen(check_oracle.check_trace(records, choice)), (
                    file, choice)
            line = verdict.record.line if verdict.record is not None else None
            digest.update(f"{'/'.join(file)}\t{choice}\t{verdict.ok}\t{verdict.template}\t"
                          f"{verdict.rule}\t{verdict.index}\t{verdict.detail}\t{line}\n".encode())
    assert digest.hexdigest() == VERDICTS_SHA256
