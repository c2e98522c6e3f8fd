"""Operation counting and trace recording."""
import json

import numpy as np
import pytest

from satcover import DISABLED_OPS, OpCounter, Trace
from satcover.instrument import UnkeptTrace


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

    def test_negative_rejected(self):
        ops = OpCounter()
        for method in (ops.assign, ops.arith, ops.cmp):
            with pytest.raises(ValueError):
                method(-1)

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

    def test_serialization_handles_numpy_ints(self):
        trace = Trace()
        trace.emit("x", np.int64(7), np.int32(8))
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
