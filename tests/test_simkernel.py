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
    BindingAck,
    HOComplete,
    Primitive,
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
)

from kernel_oracle import HeapKernel
from support import trace_line, trace_lines


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
        def handler(event, _fe=fe_id):
            log.append((_fe, event.at, event.payload))
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

        def handler(event):
            if event.payload.flow == 0:
                kernel.schedule(0, TunnelStop(flow=1))
                kernel.schedule(0, TunnelStop(flow=2))

        kernel.register(FE_ENVIRONMENT, handler)
        kernel.schedule(1_000_000, TunnelStop(flow=0))
        kernel.run_until_quiescent()
        first, second, third = recorder.records
        assert second.at == 1_000_000 and second.at is third.at is first.at is kernel.now


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

        def explode(event):
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
    """What a kernel delivers for a program, in order: (at, seq, sender,
    receiver, payload id) of each delivery and (at, call index) of each call;
    the records; and what each run returned."""
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

    def handler(event, fe):
        assert event.at == kernel.now
        assert (event.sender, event.receiver) == ENDS[type(event.payload).__name__]
        assert event.receiver == fe
        log.append((event.at, event.seq, event.sender, event.receiver, id(event.payload)))
        step()

    for fe in KERNEL_FES:
        kernel.register(fe, lambda event, fe=fe: handler(event, fe))
    returned = []
    for deliveries in rounds:
        for delay, fe in deliveries:
            kernel.schedule(delay, next(payloads[fe]))
        returned.append(kernel.run_until_quiescent())
    records = [(r.at, r.sender, r.receiver, r.name, id(r.params)) for r in recorder.records]
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
        log, _records, returned = run_program(Kernel, **program)
        assert [(at, seq, receiver) for at, seq, _s, receiver, _p in log] == [
            (1, 2, FE_DAEMON), (2, 1, FE_ENVIRONMENT), (2, 3, FE_MRRM), (2, 4, FE_ENVIRONMENT)
        ]
        assert returned == [2]
        assert run_program(HeapKernel, **program)[0] == log


class TestCallLater:
    def test_runs_at_requested_time_without_tracing(self):
        recorder = TraceRecorder()
        kernel, _ = make_kernel(FE_MRRM, recorder=recorder)
        seen = []
        kernel.call_later(25, lambda: seen.append(kernel.now), owner=FE_MRRM)
        kernel.run_until_quiescent()
        assert seen == [25]
        assert recorder.records == []


class TestTraceRecord:
    def test_to_json_field_order_and_compact_separators(self):
        record = TraceRecord(at=5, sender="A", receiver="B", name="TunnelStop", params={"flow": 1})
        assert trace_line(record) == '{"t":5,"from":"A","to":"B","msg":"TunnelStop","params":{"flow":1}}'

    def test_to_json_sorts_params_recursively(self):
        record = TraceRecord(
            at=0,
            sender="A",
            receiver="B",
            name="X",
            params={"b": 1, "a": {"z": 1, "y": [{"q": 1, "p": 2}]}},
        )
        assert trace_line(record).endswith('"params":{"a":{"y":[{"p":2,"q":1}],"z":1},"b":1}}')

    @given(
        at=st.integers(),
        sender=names,
        receiver=names,
        name=names,
        params=st.dictionaries(st.text(max_size=6), json_values, max_size=6),
    )
    def test_to_json_equals_json_dumps(self, at, sender, receiver, name, params):
        record = TraceRecord(at=at, sender=sender, receiver=receiver, name=name, params=params)
        assert trace_line(record) == _reference_line(record)

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


def _reference_line(record):
    """json.dumps of the record head, then its params with keys sorted."""
    head = json.dumps(
        {"t": record.at, "from": record.sender, "to": record.receiver, "msg": record.name},
        separators=(",", ":"),
    )
    body = json.dumps(record.params, sort_keys=True, separators=(",", ":"))
    return f'{head[:-1]},"params":{body}}}'


class TestSharedParams:
    """Records may share a params object and its nested values; the lines stay the same."""

    @given(st.data())
    def test_lines_equal_json_dumps_of_every_record(self, data):
        shared_lists = data.draw(st.lists(st.lists(json_values, max_size=3), min_size=1, max_size=3))
        pool = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            params = data.draw(st.dictionaries(st.text(max_size=6), json_values, max_size=4))
            # Some params hold one of the shared lists, as snapshots of one tick do.
            for key in data.draw(st.lists(st.text(max_size=6), max_size=2)):
                params[key] = data.draw(st.sampled_from(shared_lists))
            pool.append(params)
        # Indices into the pool: repeats land next to each other and apart.
        picks = data.draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1), max_size=12))
        recorder = TraceRecorder()
        for at, index in enumerate(picks):
            recorder.records.append(
                TraceRecord(at, data.draw(names), data.draw(names), data.draw(names), pool[index])
            )
        encoded = []
        encode = simkernel._encode_params
        # Not monkeypatch: a function-scoped fixture would span every example.
        simkernel._encode_params = lambda params, *rest: encoded.append(params) or encode(params, *rest)
        try:
            lines = trace_lines(recorder)
        finally:
            simkernel._encode_params = encode
        assert lines == [_reference_line(r) for r in recorder.records]
        # Each distinct params object once, in order of first use.
        assert [id(p) for p in encoded] == list(dict.fromkeys(id(r.params) for r in recorder.records))

    def test_a_payload_delivered_twice_in_a_row_renders_once(self, monkeypatch):
        # However often and however far apart a payload is delivered, its
        # fields are rendered once; the renderer is counted, not params().
        rendered = []
        [(field, render)] = TunnelStop._codecs
        assert render is None  # the flow id, a scalar, renders as itself
        monkeypatch.setattr(TunnelStop, "_codecs", ((field, lambda v: rendered.append(v) or v),))
        recorder = TraceRecorder()
        kernel, _ = make_kernel(FE_ENVIRONMENT, recorder=recorder)
        shared, other = TunnelStop(flow=1), TunnelStop(flow=2)
        deliveries = (shared, shared, other, shared)
        for delay, payload in enumerate(deliveries * 2):
            kernel.schedule(delay * 1000, payload)
        kernel.run_until_quiescent()
        assert rendered == [1, 2]
        records = recorder.records
        assert [(r.sender, r.receiver) for r in records] == [(FE_DAEMON, FE_ENVIRONMENT)] * 8
        assert [r.params for r in records] == [{"flow": 1}, {"flow": 1}, {"flow": 2}, {"flow": 1}] * 2
        assert all(r.params is records[0].params for r in records if r.params["flow"] == 1)
        assert records[6].params is records[2].params
        assert trace_lines(recorder) == [_reference_line(r) for r in records]

    def test_the_recorder_calls_params_only_to_render(self, monkeypatch):
        # The traced benchmark counts params() calls as renders.
        calls = []
        params = Primitive.params
        monkeypatch.setattr(Primitive, "params", lambda self: calls.append(self) or params(self))
        kernel, _ = make_kernel(FE_ENVIRONMENT)
        shared, other = TunnelStop(flow=1), TunnelStop(flow=2)
        for payload in (shared, other, shared, shared):
            kernel.schedule(0, payload)
        kernel.run_until_quiescent()
        assert calls == [shared, other]
        assert [r.params["flow"] for r in kernel.recorder.records] == [1, 2, 1, 1]

    def test_unserializable_params_raise_the_json_type_error(self):
        recorder = TraceRecorder()
        recorder.annotate(0, ANNOTATION_LINK_DOWN, {"bad": object()})
        with pytest.raises(TypeError, match="is not JSON serializable"):
            trace_lines(recorder)

    def test_circular_params_are_refused(self):
        loop = []
        loop.append(loop)
        record = TraceRecord(at=0, sender="X", receiver="X", name="Note", params={"loop": loop})
        with pytest.raises(ValueError, match="Circular reference"):
            trace_line(record)

    def test_a_failed_encoding_leaves_nothing_behind(self):
        inner = [object()]
        record = TraceRecord(at=0, sender="X", receiver="X", name="Note", params={"v": inner})
        with pytest.raises(TypeError, match="is not JSON serializable"):
            trace_line(record)
        inner.clear()  # the same objects again, now encodable
        assert trace_line(record).endswith('"params":{"v":[]}}')


class TestStreamedWrite:
    """write() encodes and writes the records a chunk at a time; the file is the same."""

    @given(chunk=st.integers(min_value=1, max_value=4), data=st.data())
    def test_chunks_write_the_reference_lines_and_encode_each_params_once(self, chunk, data):
        pool = data.draw(st.lists(st.dictionaries(st.text(max_size=6), json_values, max_size=3),
                                  min_size=1, max_size=4))
        # Up to 14 records over chunks of 1 to 4: a params object recurs
        # within a chunk and across chunk boundaries.
        picks = data.draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1), max_size=14))
        recorder = TraceRecorder()
        for at, index in enumerate(picks):
            recorder.records.append(
                TraceRecord(at, data.draw(names), data.draw(names), data.draw(names), pool[index])
            )
        encoded, encoders, heads, served = [], [], [], []
        encode, lines = simkernel._encode_params, TraceRecorder.lines
        make_encoder, head_json = simkernel._params_encoder, TraceRecord.head_json

        def counted_lines(self, *args, **kwargs):
            served.append(lines(self, *args, **kwargs))
            return served[-1]

        # Not the monkeypatch fixture: a function-scoped fixture would span every example.
        with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
            patch.setattr(simkernel, "_WRITE_CHUNK_RECORDS", chunk)
            patch.setattr(simkernel, "_encode_params",
                          lambda params, *rest: encoded.append(params) or encode(params, *rest))
            patch.setattr(simkernel, "_params_encoder", lambda: encoders.append(1) or make_encoder())
            patch.setattr(TraceRecord, "head_json",
                          lambda record: heads.append((record.sender, record.receiver, record.name))
                          or head_json(record))
            patch.setattr(TraceRecorder, "lines", counted_lines)
            path = Path(tmp) / "trace.jsonl"
            recorder.write(str(path))
            text = path.read_bytes().decode("utf-8")
        assert text == "".join(_reference_line(r) + "\n" for r in recorder.records)
        # Each distinct params object and each distinct head once per write, in
        # order of first use, all params with one encoder.
        assert [id(p) for p in encoded] == list(dict.fromkeys(id(r.params) for r in recorder.records))
        assert heads == list(dict.fromkeys((r.sender, r.receiver, r.name) for r in recorder.records))
        assert len(encoders) == 1
        assert all(len(part) <= chunk for part in served)
        assert len(served) == -(-len(picks) // chunk)


class TestRecorder:
    def test_records_deliveries_and_annotations(self, tmp_path):
        recorder = TraceRecorder()
        kernel, _ = make_kernel(FE_ENVIRONMENT, recorder=recorder)
        kernel.schedule(2, TunnelStop(flow=8))
        kernel.run_until_quiescent()
        recorder.annotate(3, ANNOTATION_LINK_DOWN, {"detail": "extra"})
        assert [(r.sender, r.receiver, r.name) for r in recorder.records] == [
            (FE_DAEMON, FE_ENVIRONMENT, "TunnelStop"),
            (FE_ENVIRONMENT, FE_ENVIRONMENT, ANNOTATION_LINK_DOWN),
        ]
        assert recorder.records[0].params == {"flow": 8}
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
