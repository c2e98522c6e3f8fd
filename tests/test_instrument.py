"""Operation counting and trace recording."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satcover.instrument import DISABLED_OPS, OpCounter, Trace, UnkeptTrace

from conftest import IntLike
from test_contract_pin import WORKED, random_batch_runs, worked_runs

# the kinds the engine emits, and one other plain ASCII name
ENGINE_KINDS = (
    "clean-result", "construct-result", "covering-already", "edge-formed", "edge-removed",
    "extend", "extension-planned", "final-marked", "incompat-eliminated", "incompat-found",
    "restore", "rp-result", "rp-start", "shortcut-hit", "snapshot", "unreachable-column",
    "useless-marked", "verdict", "vertex-examined", "vertex-formed", "vertex-removed",
)
PAYLOAD_VALUES = st.one_of(
    st.integers(-(2**40), 2**40),
    st.integers(2**31, 2**80),
    st.builds(IntLike, st.integers(-(2**63), 2**63)),
)
# per event: kind, payload, and the ops charged before it is emitted
EVENTS = st.lists(
    st.tuples(
        st.sampled_from(ENGINE_KINDS + ("Other_kind-2",)),
        st.lists(PAYLOAD_VALUES, max_size=4),
        st.integers(0, 3),
    ),
    max_size=40,
)


class TestOpCounter:
    def test_tallies(self):
        ops = OpCounter()
        ops.assign(3)
        ops.arith()
        ops.cmp(2)
        assert ops.assignments == 3
        assert ops.arithmetic == 1
        assert ops.comparisons == 2
        assert ops.total == 6
        assert ops.as_dict() == {
            "assignments": 3,
            "arithmetic": 1,
            "comparisons": 2,
        }

    def test_kind_methods_accumulate(self):
        ops = OpCounter()
        for _ in range(2):
            ops.assign(1)
            ops.arith(0)
            ops.cmp(2)
        ops.arith(1)
        assert (ops.assignments, ops.arithmetic, ops.comparisons) == (2, 1, 4)

    def test_disabled_records_nothing(self):
        DISABLED_OPS.assign(5)
        DISABLED_OPS.arith(5)
        DISABLED_OPS.cmp(5)
        assert DISABLED_OPS.total == 0
        assert DISABLED_OPS.as_dict() == {
            "assignments": 0,
            "arithmetic": 0,
            "comparisons": 0,
        }


class TestTrace:
    def test_events_carry_counter_readings(self):
        ops = OpCounter()
        trace = Trace(ops)
        trace.emit("start")
        ops.assign(4)
        trace.emit("step", 1, 2)
        assert trace.events == [("start", (), 0), ("step", (1, 2), 4)]
        assert trace.kinds() == ["start", "step"]
        assert trace.events_without_readings() == [("start", ()), ("step", (1, 2))]

    def test_serialization_is_deterministic(self):
        def build():
            ops = OpCounter()
            trace = Trace(ops)
            trace.emit("a", 1)
            ops.cmp(2)
            trace.emit("b", 3, 4)
            return trace

        assert build().serialize() == build().serialize()
        assert build().sha256() == build().sha256()
        assert len(build().sha256()) == 64

    def test_serialization_handles_int_like_payloads(self):
        trace = Trace()
        trace.emit("x", IntLike(7), IntLike(8))
        doc = json.loads(trace.serialize())
        assert doc == [["x", [7, 8], 0]]

    def test_empty_trace(self):
        trace = Trace()
        assert json.loads(trace.serialize()) == []

    def test_an_unkept_trace_records_nothing_and_has_no_digest(self):
        ops = OpCounter()
        trace = UnkeptTrace(ops)
        trace.emit("step", 1, 2)
        ops.assign(3)
        assert trace.events == [] and trace.kinds() == [] and trace.ops.total == 3
        for digest in (trace.serialize, trace.sha256):
            with pytest.raises(ValueError, match="kept no trace events"):
                digest()


class TestFlatStorage:
    @given(EVENTS)
    @settings(max_examples=300, deadline=None)
    def test_serialize_and_views_match_the_emitted_events(self, emitted):
        ops = OpCounter()
        trace = Trace(ops)
        expected = []
        for kind, payload, charge in emitted:
            ops.assign(charge)
            ops.cmp(charge)
            trace.emit(kind, *payload)
            expected.append((kind, tuple(payload), ops.total))
        # the definition the flat template must reproduce byte for byte
        old = json.dumps(expected, separators=(",", ":"), default=int).encode("ascii")
        assert trace.serialize() == old
        assert trace.events == expected
        assert trace.kinds() == [kind for kind, _, _ in expected]
        assert trace.events_without_readings() == [(kind, payload) for kind, payload, _ in expected]

    def test_engine_payloads_are_ints_and_not_bools(self):
        # '%d' writes True as 1 where JSON writes true: every value the
        # engine emits must be a plain int
        runs = [run for name in sorted(WORKED) for run in worked_runs(name)]
        runs += random_batch_runs()
        for run in runs:
            for kind, payload, reading in run.trace.events:
                for value in payload + (reading,):
                    assert isinstance(value, int) and not isinstance(value, bool), (kind, payload)
