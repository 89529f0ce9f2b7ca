"""Unit tests for repro.workloads.trace."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.trace import CONTROL_OPS, FP_OPS, INT_OPS, MEM_OPS, Instruction, OpClass, Trace


def make_trace(n=8, op=OpClass.IALU):
    return Trace(
        op=np.full(n, int(op), dtype=np.int8),
        dep1=np.zeros(n, dtype=np.int32),
        dep2=np.zeros(n, dtype=np.int32),
        addr=np.zeros(n, dtype=np.int64),
        taken=np.zeros(n, dtype=bool),
        pc=4 * np.arange(n, dtype=np.int64),
        fp_dest=np.zeros(n, dtype=bool),
    )


class TestOpClasses:
    def test_eleven_op_classes(self):
        assert len(OpClass) == 11

    def test_partition_is_complete(self):
        covered = set(INT_OPS) | set(FP_OPS) | set(MEM_OPS) | set(CONTROL_OPS)
        assert covered == set(OpClass)

    def test_partitions_disjoint(self):
        assert not (set(INT_OPS) & set(FP_OPS))
        assert not (set(INT_OPS) & set(MEM_OPS))
        assert not (set(FP_OPS) & set(MEM_OPS))
        assert not (set(CONTROL_OPS) & set(INT_OPS))


class TestTrace:
    def test_length(self):
        assert len(make_trace(5)) == 5

    def test_getitem_returns_instruction(self):
        t = make_trace(3)
        instr = t[1]
        assert isinstance(instr, Instruction)
        assert instr.op == OpClass.IALU
        assert instr.pc == 4

    def test_mix_sums_to_one(self):
        t = make_trace(10)
        assert sum(t.mix().values()) == pytest.approx(1.0)

    def test_mix_of_uniform_trace(self):
        t = make_trace(10, OpClass.LOAD)
        assert t.mix()[OpClass.LOAD] == pytest.approx(1.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(WorkloadError):
            Trace(
                op=np.array([], dtype=np.int8),
                dep1=np.array([], dtype=np.int32),
                dep2=np.array([], dtype=np.int32),
                addr=np.array([], dtype=np.int64),
                taken=np.array([], dtype=bool),
                pc=np.array([], dtype=np.int64),
                fp_dest=np.array([], dtype=bool),
            )

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(WorkloadError, match="same length"):
            Trace(
                op=np.zeros(3, dtype=np.int8),
                dep1=np.zeros(2, dtype=np.int32),
                dep2=np.zeros(3, dtype=np.int32),
                addr=np.zeros(3, dtype=np.int64),
                taken=np.zeros(3, dtype=bool),
                pc=np.zeros(3, dtype=np.int64),
                fp_dest=np.zeros(3, dtype=bool),
            )

    def test_negative_dependency_rejected(self):
        t = make_trace(3)
        with pytest.raises(WorkloadError, match="non-negative"):
            Trace(
                op=t.op,
                dep1=np.array([-1, 0, 0], dtype=np.int32),
                dep2=t.dep2,
                addr=t.addr,
                taken=t.taken,
                pc=t.pc,
                fp_dest=t.fp_dest,
            )

    @pytest.mark.parametrize("column", ["dep1", "dep2"])
    def test_dependency_before_trace_start_rejected(self, column):
        # dep[2] = 5 names instruction -3, before the trace starts.
        deps = np.zeros(8, dtype=np.int32)
        deps[2] = 5
        t = make_trace(8)
        columns = dict(
            op=t.op, dep1=t.dep1, dep2=t.dep2, addr=t.addr,
            taken=t.taken, pc=t.pc, fp_dest=t.fp_dest,
        )
        columns[column] = deps
        with pytest.raises(WorkloadError, match="instruction 2 depends"):
            Trace(**columns)

    def test_single_instruction_with_dependency_rejected(self):
        with pytest.raises(WorkloadError, match="instruction 0 depends"):
            Trace.from_instructions([Instruction(op=OpClass.IALU, dep1=3)])

    def test_dependency_on_first_instruction_accepted(self):
        t = Trace.from_instructions(
            [Instruction(op=OpClass.IALU, dep1=i, dep2=i) for i in range(4)]
        )
        assert t.dep1.tolist() == [0, 1, 2, 3]

    def test_from_instructions_round_trip(self):
        instrs = [
            Instruction(op=OpClass.LOAD, addr=64, pc=0),
            Instruction(op=OpClass.BRANCH, dep1=1, taken=True, pc=4),
        ]
        t = Trace.from_instructions(instrs)
        assert len(t) == 2
        assert t[0].op == OpClass.LOAD
        assert t[0].addr == 64
        assert t[1].dep1 == 1
        assert t[1].taken is True

    def test_from_empty_list_rejected(self):
        with pytest.raises(WorkloadError):
            Trace.from_instructions([])
