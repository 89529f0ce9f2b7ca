"""Dynamic instruction traces consumed by the cycle-level simulator.

A :class:`Trace` is a flattened dynamic instruction stream.  For speed the
trace is stored as parallel numpy arrays rather than a list of objects;
:class:`Instruction` is a convenience view used by tests and small tools.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError


class OpClass(enum.IntEnum):
    """Operation classes recognised by the simulator.

    The latencies associated with each class come from Table 1 and live in
    :mod:`repro.cpu.isa`.
    """

    IALU = 0
    IMUL = 1
    IDIV = 2
    FADD = 3
    FMUL = 4
    FDIV = 5
    LOAD = 6
    STORE = 7
    BRANCH = 8
    CALL = 9
    RETURN = 10


#: Ops executed by the integer ALUs.
INT_OPS = (OpClass.IALU, OpClass.IMUL, OpClass.IDIV)
#: Ops executed by the floating-point units.
FP_OPS = (OpClass.FADD, OpClass.FMUL, OpClass.FDIV)
#: Ops that access the data memory hierarchy.
MEM_OPS = (OpClass.LOAD, OpClass.STORE)
#: Control-transfer ops (all execute on an integer ALU).
CONTROL_OPS = (OpClass.BRANCH, OpClass.CALL, OpClass.RETURN)


@dataclass(frozen=True)
class Instruction:
    """A single dynamic instruction (object view of one trace row).

    Attributes:
        op: operation class.
        dep1: distance (in dynamic instructions) back to the producer of
            the first source operand, or 0 for no register dependence.
        dep2: distance to the second source's producer, or 0.
        addr: cache-block-aligned byte address for LOAD/STORE, else 0.
        taken: actual branch outcome for BRANCH, else False.
        pc: instruction address (used for I-cache and branch predictor).
        fp_dest: whether the destination register is floating point.
    """

    op: OpClass
    dep1: int = 0
    dep2: int = 0
    addr: int = 0
    taken: bool = False
    pc: int = 0
    fp_dest: bool = False


class Trace:
    """A dynamic instruction stream stored as parallel numpy arrays.

    Attributes:
        op, dep1, dep2, addr, taken, pc, fp_dest: per-instruction arrays.
        name: label for reporting (e.g. the workload and phase it came from).
    """

    __slots__ = ("op", "dep1", "dep2", "addr", "taken", "pc", "fp_dest", "name")

    def __init__(
        self,
        op: np.ndarray,
        dep1: np.ndarray,
        dep2: np.ndarray,
        addr: np.ndarray,
        taken: np.ndarray,
        pc: np.ndarray,
        fp_dest: np.ndarray,
        name: str = "trace",
    ) -> None:
        n = len(op)
        arrays = (dep1, dep2, addr, taken, pc, fp_dest)
        if any(len(a) != n for a in arrays):
            raise WorkloadError("trace arrays must all have the same length")
        if n == 0:
            raise WorkloadError("trace must contain at least one instruction")
        if (dep1 < 0).any() or (dep2 < 0).any():
            raise WorkloadError("dependency distances must be non-negative")
        # Instruction i can depend at most i instructions back; a longer
        # distance names a producer before the start of the trace.
        position = np.arange(n)
        reaches_back = (dep1 > position) | (dep2 > position)
        if reaches_back.any():
            first = int(np.argmax(reaches_back))
            raise WorkloadError(
                f"instruction {first} depends on an instruction before the "
                "start of the trace (dependency distance exceeds its index)"
            )
        self.op = np.ascontiguousarray(op, dtype=np.int8)
        self.dep1 = np.ascontiguousarray(dep1, dtype=np.int32)
        self.dep2 = np.ascontiguousarray(dep2, dtype=np.int32)
        self.addr = np.ascontiguousarray(addr, dtype=np.int64)
        self.taken = np.ascontiguousarray(taken, dtype=bool)
        self.pc = np.ascontiguousarray(pc, dtype=np.int64)
        self.fp_dest = np.ascontiguousarray(fp_dest, dtype=bool)
        self.name = name

    def __len__(self) -> int:
        return len(self.op)

    def __getitem__(self, i: int) -> Instruction:
        return Instruction(
            op=OpClass(int(self.op[i])),
            dep1=int(self.dep1[i]),
            dep2=int(self.dep2[i]),
            addr=int(self.addr[i]),
            taken=bool(self.taken[i]),
            pc=int(self.pc[i]),
            fp_dest=bool(self.fp_dest[i]),
        )

    @classmethod
    def from_instructions(cls, instructions: list[Instruction], name: str = "trace") -> "Trace":
        """Build a trace from a list of :class:`Instruction` objects."""
        if not instructions:
            raise WorkloadError("trace must contain at least one instruction")
        return cls(
            op=np.array([int(i.op) for i in instructions], dtype=np.int8),
            dep1=np.array([i.dep1 for i in instructions], dtype=np.int32),
            dep2=np.array([i.dep2 for i in instructions], dtype=np.int32),
            addr=np.array([i.addr for i in instructions], dtype=np.int64),
            taken=np.array([i.taken for i in instructions], dtype=bool),
            pc=np.array([i.pc for i in instructions], dtype=np.int64),
            fp_dest=np.array([i.fp_dest for i in instructions], dtype=bool),
            name=name,
        )

    def mix(self) -> dict[OpClass, float]:
        """Fraction of the dynamic stream in each op class."""
        counts = np.bincount(self.op, minlength=len(OpClass))
        total = float(len(self))
        return {cls_: counts[int(cls_)] / total for cls_ in OpClass}
