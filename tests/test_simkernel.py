"""Event kernel ordering and the JSON-Lines trace format."""

import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mobsig import simkernel
from mobsig.core import (
    ANNOTATION_LINK_DOWN,
    ENDS,
    FE_DAEMON,
    FE_ENVIRONMENT,
    FE_MRRM,
    AccessId,
    AccessSetsSnapshot,
    BindingAck,
    BindingUpdate,
    HOComplete,
    LinkDown,
    LinkUp,
    Locator,
    Primitive,
    QosSpec,
    Result,
    TunnelStop,
)
from mobsig.simkernel import (
    TRACE_FIELDS,
    ConfigurationError,
    Kernel,
    SimulationError,
    TraceRecord,
    TraceRecorder,
    _Rendered,
    trace_records,
)

from kernel_oracle import HeapKernel
from support import annotate, any_payload, trace_line, trace_lines


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)
names = st.text(max_size=10)


def make_kernel(*fe_ids, recorder=None):
    """Kernel with one list-appending handler per FE; returns (kernel, log)."""
    kernel = Kernel(recorder=recorder or TraceRecorder())
    log = []
    for fe_id in fe_ids:
        def handler(payload, _fe=fe_id):
            log.append((_fe, kernel.now, payload))
        kernel.register(_fe := fe_id, handler)
    return kernel, log


class TestScheduling:
    def test_rejects_negative_delay(self):
        kernel, _ = make_kernel(FE_ENVIRONMENT)
        with pytest.raises(ConfigurationError):
            kernel.schedule(-1, TunnelStop(flow=1))

    def test_rejects_unknown_receiver(self):
        # A TunnelStop goes to Env, which has no handler here.
        kernel, _ = make_kernel(FE_DAEMON)
        with pytest.raises(ConfigurationError, match="unknown receiver FE: 'Env'"):
            kernel.schedule(0, TunnelStop(flow=1))

    def test_delivers_in_time_order(self):
        kernel, log = make_kernel(FE_ENVIRONMENT)
        for delay in (10, 0, 5):
            kernel.schedule(delay, TunnelStop(flow=delay))
        kernel.run_until_quiescent()
        assert [at for _, at, _ in log] == [0, 5, 10]

    def test_same_time_events_keep_fifo_order(self):
        kernel, log = make_kernel(FE_ENVIRONMENT)
        for flow in (1, 2, 3):
            kernel.schedule(7, TunnelStop(flow=flow))
        kernel.run_until_quiescent()
        assert [payload.flow for _, _, payload in log] == [1, 2, 3]

    def test_zero_delay_deliveries_record_the_clocks_own_int(self):
        """Deliveries made at one instant share its int, not a fresh now + 0 each."""
        recorder = TraceRecorder()
        kernel = Kernel(recorder=recorder)

        def handler(payload):
            if payload.flow == 0:
                kernel.schedule(0, TunnelStop(flow=1))
                kernel.schedule(0, TunnelStop(flow=2))

        kernel.register(FE_ENVIRONMENT, handler)
        kernel.schedule(1_000_000, TunnelStop(flow=0))
        kernel.run_until_quiescent()
        (first, _, _), (second, _, _), (third, _, _) = recorder.events
        assert second == 1_000_000 and second is third is first is kernel.now


class TestRunUntilQuiescent:
    def test_empty_queue_returns_zero(self):
        kernel, _ = make_kernel(FE_ENVIRONMENT)
        assert kernel.run_until_quiescent() == 0

    def test_returns_time_of_last_event(self):
        kernel, _ = make_kernel(FE_ENVIRONMENT)
        kernel.schedule(42, TunnelStop(flow=1))
        assert kernel.run_until_quiescent() == 42
        assert kernel.now == 42

    def test_handler_failure_wraps_event(self):
        kernel = Kernel(recorder=TraceRecorder())

        def explode(payload):
            raise RuntimeError("boom")

        kernel.register(FE_ENVIRONMENT, explode)
        kernel.schedule(3, TunnelStop(flow=1))
        with pytest.raises(SimulationError) as excinfo:
            kernel.run_until_quiescent()
        assert "t=3 for Daemon->Env TunnelStop: boom" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)


# One program for a kernel: rounds of deliveries scheduled from outside, each
# followed by a run; the n-th delivery or call of the program does plans[n - 1].
# A delivery names its receiver through its payload's type: a TunnelStop goes
# to Env, a BindingAck to Daemon and an HOComplete to MRRM.
KERNEL_FES = (FE_ENVIRONMENT, FE_DAEMON, FE_MRRM)
kernel_delays = st.sampled_from((0, 1, 2, 5))
kernel_programs = st.fixed_dictionaries({
    "rounds": st.lists(st.lists(st.tuples(kernel_delays, st.sampled_from(KERNEL_FES)),
                                min_size=1, max_size=4), min_size=1, max_size=3),
    "plans": st.lists(st.lists(st.tuples(st.sampled_from(("send", "call")), kernel_delays,
                                         st.sampled_from(KERNEL_FES)), max_size=3), max_size=60),
})
# Each receiver's payloads are taken in order from its own pool, so both
# kernels deliver the same objects.
KERNEL_PAYLOADS = {
    FE_ENVIRONMENT: tuple(TunnelStop(flow=n) for n in range(250)),
    FE_DAEMON: tuple(BindingAck(flow=n, result=Result.success()) for n in range(250)),
    FE_MRRM: tuple(HOComplete(result=Result.success()) for _ in range(250)),
}


def run_program(kernel_cls, rounds, plans):
    """What a kernel delivers for a program, in order: (at, sender, receiver,
    payload id) of each delivery and (at, call index) of each call; the
    recorded events as (at, seq, sender, receiver, payload id); and what each
    run returned."""
    recorder = TraceRecorder()
    kernel = kernel_cls(recorder)
    payloads = {fe: iter(pool) for fe, pool in KERNEL_PAYLOADS.items()}
    call_ids = itertools.count()
    log = []

    def step():
        if len(log) <= len(plans):
            for kind, delay, fe in plans[len(log) - 1]:
                if kind == "send":
                    kernel.schedule(delay, next(payloads[fe]))
                else:
                    kernel.call_later(delay, make_call(), fe)

    def make_call():
        index = next(call_ids)

        def call():
            log.append((kernel.now, "call", index))
            step()

        return call

    def handler(payload, fe):
        assert payload._ends == ENDS[type(payload).__name__]
        assert payload._ends[1] == fe
        log.append((kernel.now, *payload._ends, id(payload)))
        step()

    for fe in KERNEL_FES:
        kernel.register(fe, lambda payload, fe=fe: handler(payload, fe))
    returned = []
    for deliveries in rounds:
        for delay, fe in deliveries:
            kernel.schedule(delay, next(payloads[fe]))
        returned.append(kernel.run_until_quiescent())
    records = [(at, seq, *payload._ends, id(payload)) for at, seq, payload in recorder.events]
    return log, records, returned


class TestOrderOracle:
    """The kernel delivers as one heap ordered by (at, seq) does
    (tests/kernel_oracle.py), zero-delay deliveries and calls included."""

    @given(program=kernel_programs)
    def test_deliveries_and_returns_equal_the_heap_kernel(self, program):
        got = run_program(Kernel, **program)
        assert got == run_program(HeapKernel, **program)
        log, _records, returned = got
        assert len(returned) == len(program["rounds"]) and log

    def test_an_earlier_events_instant_goes_before_zero_delay_ones(self):
        # At t=2 the heap holds Env's (seq 1, sent at t=0) and MRRM's (seq 3,
        # sent by Daemon's at t=1). Env's sends a zero-delay event to Env (seq
        # 4), which waits for MRRM's.
        program = {"rounds": [[(2, FE_ENVIRONMENT), (1, FE_DAEMON)]],
                   "plans": [[("send", 1, FE_MRRM)], [("send", 0, FE_ENVIRONMENT)], []]}
        log, records, returned = run_program(Kernel, **program)
        assert [(at, seq, receiver) for at, seq, _s, receiver, _p in records] == [
            (1, 2, FE_DAEMON), (2, 1, FE_ENVIRONMENT), (2, 3, FE_MRRM), (2, 4, FE_ENVIRONMENT)
        ]
        assert log == [(at, *rest) for at, _seq, *rest in records]
        assert returned == [2]
        assert run_program(HeapKernel, **program)[:2] == (log, records)


class TestCallLater:
    def test_runs_at_requested_time_without_tracing(self):
        recorder = TraceRecorder()
        kernel, _ = make_kernel(FE_MRRM, recorder=recorder)
        seen = []
        kernel.call_later(25, lambda: seen.append(kernel.now), owner=FE_MRRM)
        kernel.run_until_quiescent()
        assert seen == [25]
        assert recorder.events == []


class TestTraceRecord:
    def test_line_field_order_and_compact_separators(self):
        recorder = TraceRecorder()
        recorder.on_delivery((5, 1, TunnelStop(1)))
        assert trace_lines(recorder) == [
            '{"t":5,"from":"Daemon","to":"Env","msg":"TunnelStop","params":{"flow":1}}'
        ]

    def test_line_sorts_params_recursively(self):
        # Fields declared flow, locator; a locator's address, access, kind.
        access = AccessId("cell-b", "net-2", "cellular")
        recorder = TraceRecorder()
        annotate(recorder, 0, LinkUp("net-2/cell-b", 3, QosSpec(500, 90)))
        payload = BindingUpdate(3, Locator("net-2/cell-b/1", access, "care_of"))
        recorder.on_delivery((0, 1, payload))
        up, update = trace_lines(recorder)
        assert up.endswith(
            '"params":{"access":"net-2/cell-b","flow":3,'
            '"granted_qos":{"bandwidth_kbps":500,"max_latency_ms":90}}}'
        )
        assert update.endswith(
            '"params":{"flow":3,"locator":{"access":{"cell_id":"cell-b","network_id":"net-2",'
            '"rat":"cellular"},"address":"net-2/cell-b/1","kind":"care_of"}}}'
        )

    @given(at=st.integers(), payload=any_payload)
    def test_line_equals_json_dumps(self, at, payload):
        recorder = TraceRecorder()
        annotate(recorder, at, payload)
        [record] = trace_records(recorder.events)
        assert trace_lines(recorder) == [trace_line(record)]

    def test_from_json_round_trip_keeps_line_number(self):
        original = TraceRecord(at=9, sender="A", receiver="B", name="M", params={"k": None})
        parsed = TraceRecord.from_json(trace_line(original), lineno=4)
        assert (parsed.at, parsed.sender, parsed.receiver, parsed.name) == (9, "A", "B", "M")
        assert parsed.params == {"k": None}
        assert parsed.line == 4

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("{oops", "not valid JSON"),
            ("[1,2]", "exactly fields"),
            ('{"t":1,"from":"a","to":"b","msg":"m"}', "exactly fields"),
            (
                '{"t":1,"from":"a","to":"b","msg":"m","params":{},"extra":0}',
                "exactly fields",
            ),
            ('{"t":"1","from":"a","to":"b","msg":"m","params":{}}', "'t' must be an integer"),
            ('{"t":1,"from":"a","to":"b","msg":"m","params":[]}', "'params' must be an object"),
            ('{"t":true,"from":"a","to":"b","msg":"m","params":{}}', "'t' must be an integer"),
            ('{"t":0,"from":1,"to":"HOLM","msg":"X","params":{}}', "'from' must be a string"),
            ('{"t":0,"from":"a","to":null,"msg":"X","params":{}}', "'to' must be a string"),
            ('{"t":0,"from":"a","to":"b","msg":["X"],"params":{}}', "'msg' must be a string"),
        ],
    )
    def test_from_json_errors_carry_line_number(self, line, fragment):
        with pytest.raises(ValueError) as excinfo:
            TraceRecord.from_json(line, lineno=7)
        message = str(excinfo.value)
        assert message.startswith("line 7:")
        assert fragment in message

    @given(st.data())
    def test_from_json_accepts_and_rejects_what_the_set_comparison_did(self, data):
        dropped = data.draw(st.sets(st.sampled_from(TRACE_FIELDS), max_size=2))
        extra = data.draw(st.sets(st.text(max_size=4).filter(lambda k: k not in TRACE_FIELDS),
                                  max_size=2))
        typical = {
            "t": st.integers(),
            "from": names,
            "to": names,
            "msg": names,
            "params": st.dictionaries(st.text(max_size=6), json_values, max_size=3),
        }
        obj = {key: data.draw(typical[key] | json_values)
               for key in TRACE_FIELDS if key not in dropped}
        obj.update((key, data.draw(json_values)) for key in extra)
        line = json.dumps(data.draw(st.just(obj) | json_values))

        try:
            expected = _set_comparing_from_json(line, 3)
        except ValueError:
            with pytest.raises(ValueError, match=r"^line 3: "):
                TraceRecord.from_json(line, 3)
            return
        try:
            parsed = TraceRecord.from_json(line, 3)
        except ValueError as exc:
            # Only the boolean-`t` and string-name checks may reject what the
            # reference accepts.
            message = str(exc)
            if type(expected.at) is bool:
                assert message == "line 3: field 't' must be an integer"
            else:
                wrong = [field for field, value in zip(("from", "to", "msg"),
                         (expected.sender, expected.receiver, expected.name))
                         if not isinstance(value, str)]
                assert wrong and message == f"line 3: field '{wrong[0]}' must be a string"
            return
        assert repr(parsed) == repr(expected)  # repr: NaN params never compare equal

    def test_trace_fields_constant(self):
        assert TRACE_FIELDS == ("t", "from", "to", "msg", "params")


def _set_comparing_from_json(line, lineno):
    """Reference reader: set-compared keys, no boolean-`t` or string-name checks."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {lineno}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or set(obj) != set(TRACE_FIELDS):
        raise ValueError(f"line {lineno}: trace records need exactly fields {TRACE_FIELDS}")
    if not isinstance(obj["t"], int):
        raise ValueError(f"line {lineno}: field 't' must be an integer")
    if not isinstance(obj["params"], dict):
        raise ValueError(f"line {lineno}: field 'params' must be an object")
    return TraceRecord(
        at=obj["t"],
        sender=obj["from"],
        receiver=obj["to"],
        name=obj["msg"],
        params=obj["params"],
        line=lineno,
    )


def _counting_renders(patch, rendered):
    """Make the writer append each payload it renders to ``rendered``."""
    renderer = simkernel.text_renderer

    def counting(kind):
        render = renderer(kind)
        return lambda payload: rendered.append(payload) or render(payload)

    patch.setattr(simkernel, "text_renderer", counting)


class TestSharedParams:
    """Records may share a payload, and payloads their field values; the lines stay the same."""

    @given(st.data())
    def test_lines_equal_json_dumps_of_every_record(self, data):
        pool = data.draw(st.lists(any_payload, min_size=1, max_size=4))
        # Indices into the pool: repeats land next to each other and apart.
        picks = data.draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1), max_size=12))
        recorder = TraceRecorder()
        for at, index in enumerate(picks):
            annotate(recorder, at, pool[index])
        rendered = []
        # Not the monkeypatch fixture: a function-scoped fixture would span every example.
        with pytest.MonkeyPatch.context() as patch:
            _counting_renders(patch, rendered)
            lines = trace_lines(recorder)
        assert lines == [trace_line(r) for r in trace_records(recorder.events)]
        # Each distinct payload once, in order of first use.
        assert [id(p) for p in rendered] == list(dict.fromkeys(id(pool[i]) for i in picks))

    def test_a_payload_delivered_twice_in_a_row_renders_once(self, monkeypatch):
        # However often and however far apart a payload is delivered, its
        # text is rendered once per write; the run renders nothing.
        rendered = []
        _counting_renders(monkeypatch, rendered)
        recorder = TraceRecorder()
        kernel, _ = make_kernel(FE_ENVIRONMENT, recorder=recorder)
        shared, other = TunnelStop(1), TunnelStop(2)
        deliveries = (shared, shared, other, shared)
        for delay, payload in enumerate(deliveries * 2):
            kernel.schedule(delay * 1000, payload)
        kernel.run_until_quiescent()
        assert rendered == [] and shared._params is None
        assert [payload for _at, _seq, payload in recorder.events] == list(deliveries * 2)
        lines = trace_lines(recorder)
        assert rendered == [shared, other]
        records = trace_records(recorder.events)
        assert [(r.sender, r.receiver) for r in records] == [(FE_DAEMON, FE_ENVIRONMENT)] * 8
        assert [r.params for r in records] == [{"flow": 1}, {"flow": 1}, {"flow": 2}, {"flow": 1}] * 2
        assert all(r.params is records[0].params for r in records if r.params["flow"] == 1)
        assert records[6].params is records[2].params
        assert lines == [trace_line(r) for r in records]

    def test_the_recorder_calls_params_only_to_render(self, monkeypatch):
        # The traced benchmark counts params() calls as renders: the run
        # makes none, and the records make one per distinct payload.
        calls = []
        params = Primitive.params
        monkeypatch.setattr(Primitive, "params", lambda self: calls.append(self) or params(self))
        kernel, _ = make_kernel(FE_ENVIRONMENT)
        shared, other = TunnelStop(1), TunnelStop(2)
        for payload in (shared, other, shared, shared):
            kernel.schedule(0, payload)
        kernel.run_until_quiescent()
        trace_lines(kernel.recorder)
        assert calls == []
        assert [r.params["flow"] for r in trace_records(kernel.recorder.events)] == [1, 2, 1, 1]
        assert calls == [shared, other]
        trace_records(kernel.recorder.events)
        assert calls == [shared, other]

    def test_unserializable_params_raise_the_json_type_error(self):
        recorder = TraceRecorder()
        annotate(recorder, 0, LinkDown(object(), 1))
        with pytest.raises(TypeError, match="must be a string"):
            trace_lines(recorder)

    def test_circular_params_are_refused(self):
        loop = []
        loop.append(loop)
        recorder = TraceRecorder()
        annotate(recorder, 0, AccessSetsSnapshot(loop, [], [], 1, []))
        with pytest.raises(TypeError):
            trace_lines(recorder)

    def test_a_failed_encoding_leaves_nothing_behind(self, tmp_path):
        # A value that breaks its field's declared type raises, and neither
        # a text nor a line of it is kept or written.
        keys = [object()]
        recorder = TraceRecorder()
        annotate(recorder, 0, AccessSetsSnapshot(keys, [], [], 1, []))
        rendered = _Rendered()
        with pytest.raises(TypeError, match="must be a string"):
            recorder.lines(0, 1, rendered)
        assert rendered.texts == {}
        path = tmp_path / "trace.jsonl"
        with pytest.raises(TypeError):
            recorder.write(str(path))
        assert path.read_bytes() == b""
        keys.clear()  # the same objects again, now of their declared types
        assert recorder.lines(0, 1, rendered)[0].endswith(
            '"params":{"aas":[],"cas":[],"das":[],"flow":1,"scanned":[]}}'
        )
        for wrong in (TunnelStop("1"), TunnelStop(1.0), LinkDown("net-1/cell-a", None),
                      HOComplete(Result(False, ("no_access",)))):
            recorder = TraceRecorder()
            annotate(recorder, 0, wrong)
            with pytest.raises(TypeError):
                recorder.write(str(path))
            assert path.read_bytes() == b""


class TestStreamedWrite:
    """write() renders and writes the events a chunk at a time; the file is the same."""

    @given(chunk=st.integers(min_value=1, max_value=4), data=st.data())
    def test_chunks_write_the_reference_lines_and_encode_each_params_once(self, chunk, data):
        pool = data.draw(st.lists(any_payload, min_size=1, max_size=4))
        # Up to 14 events over chunks of 1 to 4: a payload recurs within a
        # chunk and across chunk boundaries.
        picks = data.draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1), max_size=14))
        recorder = TraceRecorder()
        for at, index in enumerate(picks):
            annotate(recorder, at, pool[index])
        rendered, kinds, served = [], [], []
        lines, renderer = TraceRecorder.lines, simkernel.text_renderer

        def counted_lines(self, *args, **kwargs):
            served.append(lines(self, *args, **kwargs))
            return served[-1]

        # Not the monkeypatch fixture: a function-scoped fixture would span every example.
        with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
            patch.setattr(simkernel, "_WRITE_CHUNK_RECORDS", chunk)
            _counting_renders(patch, rendered)
            counting = simkernel.text_renderer
            patch.setattr(simkernel, "text_renderer", lambda kind: kinds.append(kind) or counting(kind))
            patch.setattr(TraceRecorder, "lines", counted_lines)
            path = Path(tmp) / "trace.jsonl"
            recorder.write(str(path))
            text = path.read_bytes().decode("utf-8")
        assert renderer is simkernel.text_renderer
        assert text == "".join(trace_line(r) + "\n" for r in trace_records(recorder.events))
        # Each distinct payload and each payload type's head and renderer once
        # per write, in order of first use.
        assert [id(p) for p in rendered] == list(dict.fromkeys(id(pool[i]) for i in picks))
        assert kinds == list(dict.fromkeys(type(pool[i]) for i in picks))
        assert all(len(part) <= chunk for part in served)
        assert len(served) == -(-len(picks) // chunk)


class TestRecorder:
    def test_records_deliveries_and_annotations(self, tmp_path):
        recorder = TraceRecorder()
        kernel, _ = make_kernel(FE_ENVIRONMENT, recorder=recorder)
        kernel.schedule(2, TunnelStop(flow=8))
        kernel.call_later(3, lambda: kernel.annotate(LinkDown("net-1/cell-a", 8)), FE_ENVIRONMENT)
        kernel.run_until_quiescent()
        assert [event[:2] for event in recorder.events] == [(2, 1), (3, 0)]  # recorded, not scheduled
        records = trace_records(recorder.events)
        assert [(r.at, r.sender, r.receiver, r.name) for r in records] == [
            (2, FE_DAEMON, FE_ENVIRONMENT, "TunnelStop"),
            (3, FE_ENVIRONMENT, FE_ENVIRONMENT, ANNOTATION_LINK_DOWN),
        ]
        assert [r.params for r in records] == [{"flow": 8}, {"access": "net-1/cell-a", "flow": 8}]
        path = tmp_path / "trace.jsonl"
        recorder.write(str(path))
        lines = path.read_text().splitlines()
        assert lines == trace_lines(recorder)
        reparsed = [TraceRecord.from_json(line, i + 1) for i, line in enumerate(lines)]
        assert [r.name for r in reparsed] == ["TunnelStop", ANNOTATION_LINK_DOWN]

    def test_identical_schedules_give_identical_lines(self):
        def run_once():
            recorder = TraceRecorder()
            kernel, _ = make_kernel(FE_ENVIRONMENT, recorder=recorder)
            for delay, flow in ((5, 1), (5, 2), (0, 3)):
                kernel.schedule(delay, TunnelStop(flow=flow))
            kernel.run_until_quiescent()
            return trace_lines(recorder)

        assert run_once() == run_once()
