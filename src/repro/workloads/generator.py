"""Seeded synthetic dynamic-instruction-stream generator.

Produces :class:`~repro.workloads.trace.Trace` objects by walking a
:class:`~repro.workloads.program.StaticProgram` built from a
:class:`~repro.workloads.characteristics.WorkloadProfile`.  Because the
walk re-executes the same basic blocks, branch pcs and code addresses
recur exactly the way they do in real programs — which is what lets the
pc-indexed branch predictor and the I-cache behave realistically.

Register dependences and data addresses are drawn per dynamic instruction
from the profile's ILP and working-set models.  Generation is
deterministic for a given (profile, phase, seed, length).

This module is the repository's stand-in for running SPEC2000/multimedia
binaries under RSIM (see DESIGN.md): it does not reproduce any particular
program, but it produces streams whose instruction mix, ILP, branch
predictability, and cache behaviour land each application in the paper's
Table 2 IPC/power spectrum when run through :mod:`repro.cpu`.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.characteristics import WorkloadProfile, MemoryBehavior
from repro.workloads.phases import Phase
from repro.workloads.program import StaticProgram, build_static_program
from repro.workloads.trace import OpClass, Trace, FP_OPS

#: Cache-block size in bytes; addresses are generated at block granularity.
BLOCK_BYTES = 64

#: Maximum register-dependency distance the generator emits.  Distances
#: beyond the instruction window never constrain issue, so there is no
#: point generating them.
MAX_DEP_DISTANCE = 256

#: Address-space bases for the data working sets and the code segment,
#: far enough apart that they never alias in the (unified) L2.
HOT_BASE = 0
WARM_BASE = 1 << 24
CODE_BASE = 1 << 30
COLD_BASE = 1 << 34

_FP_INTS = tuple(int(o) for o in FP_OPS)


class TraceGenerator:
    """Generates synthetic traces for a workload profile.

    The static program is built once per generator; successive calls to
    :meth:`phase_trace` walk it with phase-specific RNG streams.  The
    cold-access cursor is shared across calls so "cold" blocks are never
    reused, even across phases.

    Args:
        profile: the workload to synthesise.
        seed: RNG seed; two generators with the same profile and seed
            produce identical traces.
    """

    def __init__(self, profile: WorkloadProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        program_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0DE]))
        self.program: StaticProgram = build_static_program(profile, program_rng)
        self._cold_cursor = 0

    def phase_trace(self, phase: Phase, n_instructions: int) -> Trace:
        """Synthesise the dynamic stream for one phase.

        Raises:
            WorkloadError: if ``n_instructions`` is not positive.
        """
        if n_instructions <= 0:
            raise WorkloadError("n_instructions must be positive")
        # zlib.crc32 rather than hash(): Python string hashing is salted
        # per process, which would make traces non-reproducible across runs.
        phase_key = zlib.crc32(phase.name.encode())
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, 0x7EACE, phase_key])
        )
        ops, pc, taken = _walk_program(rng, self.program, n_instructions)
        ops = _apply_fp_scale(rng, ops, phase.fp_scale)
        dep1, dep2 = _draw_dependencies(
            rng, self.profile.dep_distance_mean * phase.ilp_scale, n_instructions
        )
        mem = _phase_memory(self.profile, phase)
        addr, self._cold_cursor = _draw_addresses(rng, ops, mem, self._cold_cursor)
        fp_dest = np.isin(ops, _FP_INTS)
        return Trace(
            op=ops,
            dep1=dep1,
            dep2=dep2,
            addr=addr,
            taken=taken,
            pc=pc,
            fp_dest=fp_dest,
            name=f"{self.profile.name}:{phase.name}",
        )

    # ---- working-set geometry used for hierarchy preloading -------------

    def hot_blocks(self) -> np.ndarray:
        """Block addresses of the L1-resident hot data set."""
        return HOT_BASE // BLOCK_BYTES + np.arange(self.profile.memory.hot_blocks)

    def warm_blocks(self) -> np.ndarray:
        """Block addresses of the L2-resident warm data set."""
        return WARM_BASE // BLOCK_BYTES + np.arange(self.profile.memory.warm_blocks)

    def code_blocks(self) -> np.ndarray:
        """Block addresses spanned by the static program's code."""
        n = self.program.footprint_bytes() // BLOCK_BYTES + 1
        return CODE_BASE // BLOCK_BYTES + np.arange(n)


#: Per-block probability that the walk jumps to a uniformly random block
#: instead of following the branch — the synthetic analogue of irregular
#: cross-module control flow, which keeps real programs from collapsing
#: into tiny attractor loops of the control-flow graph.
_RESTART_PROBABILITY = 0.10


def _walk_program(
    rng: np.random.Generator, program: StaticProgram, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random-walk the control-flow graph until ``n`` instructions.

    The walk maintains a call stack: CALL terminators push their
    fall-through block and jump to the callee; RETURN terminators pop it
    (or land on a random non-function block when the stack is empty,
    e.g. after a restart teleported out of a function).
    """
    ops_parts: list[np.ndarray] = []
    pc_parts: list[np.ndarray] = []
    lengths: list[int] = []
    takens: list[bool] = []
    total = 0
    first_fn = program.first_function_block()
    cur = int(rng.integers(0, first_fn))
    p_taken = program.p_taken
    target = program.target
    terminator = program.terminator
    call_stack: list[int] = []
    _CALL = int(OpClass.CALL)
    _RETURN = int(OpClass.RETURN)
    while total < n:
        block = program.block_ops[cur]
        ops_parts.append(block)
        pc_parts.append(program.block_pc[cur])
        length = len(block)
        lengths.append(length)
        total += length
        term = int(terminator[cur])
        if term == _CALL:
            takens.append(True)
            # The architectural return address is call pc + 4, i.e. the
            # next block in layout order (sequential layout).
            call_stack.append(cur + 1 if cur + 1 < program.n_blocks else 0)
            cur = int(target[cur])
            continue
        if term == _RETURN:
            takens.append(True)
            cur = call_stack.pop() if call_stack else int(rng.integers(0, first_fn))
            continue
        t = bool(rng.random() < p_taken[cur])
        takens.append(t)
        if rng.random() < _RESTART_PROBABILITY:
            cur = int(rng.integers(0, first_fn))
        else:
            cur = int(target[cur]) if t else (cur + 1) % first_fn
    ops = np.concatenate(ops_parts)[:n].copy()
    pc = (np.concatenate(pc_parts)[:n] + CODE_BASE).copy()
    taken = np.zeros(n, dtype=bool)
    ends = np.cumsum(lengths) - 1
    keep = ends < n
    taken[ends[keep]] = np.asarray(takens)[keep]
    return ops, pc, taken


def _apply_fp_scale(
    rng: np.random.Generator, ops: np.ndarray, fp_scale: float
) -> np.ndarray:
    """Stochastically remap FP <-> integer-ALU ops for phase modulation.

    ``fp_scale < 1`` demotes each FP op to IALU with probability
    ``1 - fp_scale``; ``fp_scale > 1`` promotes IALU ops to FADD so the FP
    share grows by the requested factor (capped by the available IALU
    mass).  Memory and branch ops are never touched, so the data and
    control streams are unaffected.
    """
    if math.isclose(fp_scale, 1.0):
        return ops
    is_fp = np.isin(ops, _FP_INTS)
    n_fp = int(is_fp.sum())
    if fp_scale < 1.0:
        demote = is_fp & (rng.random(len(ops)) < (1.0 - fp_scale))
        ops = ops.copy()
        ops[demote] = int(OpClass.IALU)
        return ops
    is_ialu = ops == int(OpClass.IALU)
    n_ialu = int(is_ialu.sum())
    extra = min(n_fp * (fp_scale - 1.0), float(n_ialu))
    if n_ialu == 0 or extra <= 0.0:
        return ops
    promote = is_ialu & (rng.random(len(ops)) < extra / n_ialu)
    ops = ops.copy()
    ops[promote] = int(OpClass.FADD)
    return ops


def _phase_memory(profile: WorkloadProfile, phase: Phase) -> MemoryBehavior:
    """Scale the cold-access probability by the phase's miss_scale."""
    mem = profile.memory
    if math.isclose(phase.miss_scale, 1.0):
        return mem
    p_cold = min(1.0, mem.p_cold * phase.miss_scale)
    locality = mem.p_hot + mem.p_warm
    if locality <= 0.0:
        return mem
    keep = (1.0 - p_cold) / locality
    return replace(mem, p_hot=mem.p_hot * keep, p_warm=mem.p_warm * keep)


def _draw_dependencies(
    rng: np.random.Generator, dep_mean: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw register-dependency distances.

    Distances are geometric with the phase-scaled mean, clipped to
    [1, MAX_DEP_DISTANCE] and to the instruction's position in the stream
    (instruction i cannot depend further back than i instructions).
    dep2 is present with probability 0.4 (two-source instructions).
    """
    p = min(1.0, 1.0 / max(dep_mean, 1.0))
    dist1 = rng.geometric(p, size=n).astype(np.int32)
    dist2 = rng.geometric(p, size=n).astype(np.int32)
    np.clip(dist1, 1, MAX_DEP_DISTANCE, out=dist1)
    np.clip(dist2, 1, MAX_DEP_DISTANCE, out=dist2)
    positions = np.arange(n, dtype=np.int32)
    dist1 = np.minimum(dist1, positions)
    dist2 = np.minimum(dist2, positions)
    has2 = rng.random(n) < 0.4
    dep2 = np.where(has2, dist2, 0).astype(np.int32)
    return dist1, dep2


def _draw_addresses(
    rng: np.random.Generator,
    ops: np.ndarray,
    mem: MemoryBehavior,
    cold_cursor: int,
) -> tuple[np.ndarray, int]:
    """Draw data addresses for loads and stores from the working-set model.

    Returns the address array and the advanced cold-stream cursor (cold
    blocks are fresh, never-reused addresses, monotonically increasing
    across the whole run).
    """
    n = len(ops)
    addr = np.zeros(n, dtype=np.int64)
    is_mem = (ops == int(OpClass.LOAD)) | (ops == int(OpClass.STORE))
    n_mem = int(is_mem.sum())
    if n_mem == 0:
        return addr, cold_cursor
    u = rng.random(n_mem)
    in_hot = u < mem.p_hot
    in_warm = (~in_hot) & (u < mem.p_hot + mem.p_warm)
    in_cold = ~(in_hot | in_warm)

    blocks = np.zeros(n_mem, dtype=np.int64)
    n_hot = int(in_hot.sum())
    if n_hot:
        # Hot set: a mixture of a sequential streaming walk and uniform reuse.
        striding = rng.random(n_hot) < mem.stride_fraction
        cursor = np.cumsum(striding) % mem.hot_blocks
        uniform = rng.integers(0, mem.hot_blocks, size=n_hot)
        blocks[in_hot] = HOT_BASE // BLOCK_BYTES + np.where(striding, cursor, uniform)
    n_warm = int(in_warm.sum())
    if n_warm:
        blocks[in_warm] = WARM_BASE // BLOCK_BYTES + rng.integers(
            0, mem.warm_blocks, size=n_warm
        )
    n_cold = int(in_cold.sum())
    if n_cold:
        blocks[in_cold] = COLD_BASE // BLOCK_BYTES + cold_cursor + np.arange(n_cold)
        cold_cursor += n_cold
    addr[is_mem] = blocks * BLOCK_BYTES
    return addr, cold_cursor


# ---- mission schedules: phased workloads over months/years ---------------


@dataclass(frozen=True)
class MissionEpoch:
    """One constant-stress span of a mission: run ``app`` at a requested
    frequency for ``hours`` of wall time.

    The frequency is a *request* — a wear-aware controller may override
    it downward; the adversary mutates it upward.

    Raises:
        WorkloadError: on non-positive hours or frequency.
    """

    app: str
    frequency_hz: float
    hours: float

    def __post_init__(self) -> None:
        if not self.app:
            raise WorkloadError("epoch needs an application name")
        if self.frequency_hz <= 0.0 or not math.isfinite(self.frequency_hz):
            raise WorkloadError("epoch frequency must be positive and finite")
        if self.hours <= 0.0 or not math.isfinite(self.hours):
            raise WorkloadError("epoch hours must be positive and finite")


@dataclass(frozen=True)
class MissionSchedule:
    """An ordered sequence of mission epochs (a phased workload history).

    Schedules are the unit the lifetime simulator integrates over and
    the search space the adversary mutates.  They are immutable; use
    :meth:`replaced`, :meth:`split`, or ``+`` to derive new ones.
    """

    epochs: tuple[MissionEpoch, ...]

    def __post_init__(self) -> None:
        if not self.epochs:
            raise WorkloadError("a mission schedule needs at least one epoch")

    @property
    def n_epochs(self) -> int:
        return len(self.epochs)

    @property
    def total_hours(self) -> float:
        return sum(e.hours for e in self.epochs)

    def digest(self) -> str:
        """Content hash of the schedule (stable across processes).

        Frequencies and hours are serialised via ``repr`` (exact for
        float64), so two schedules share a digest iff they are
        bit-identical — the property checkpoint resume relies on.  The
        schedule is immutable, so the hash is computed once and cached.
        """
        return self._digest

    @cached_property
    def _digest(self) -> str:
        canon = [[e.app, repr(e.frequency_hz), repr(e.hours)] for e in self.epochs]
        blob = json.dumps(canon, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    def split(self, k: int) -> tuple["MissionSchedule", "MissionSchedule"]:
        """Split into the first ``k`` epochs and the rest.

        Raises:
            WorkloadError: unless ``0 < k < n_epochs``.
        """
        if not 0 < k < self.n_epochs:
            raise WorkloadError(f"split point {k} outside (0, {self.n_epochs})")
        return MissionSchedule(self.epochs[:k]), MissionSchedule(self.epochs[k:])

    def replaced(self, index: int, epoch: MissionEpoch) -> "MissionSchedule":
        """A copy with one epoch substituted (the adversary's mutation)."""
        if not 0 <= index < self.n_epochs:
            raise WorkloadError(f"epoch index {index} out of range")
        epochs = list(self.epochs)
        epochs[index] = epoch
        return MissionSchedule(tuple(epochs))

    def __add__(self, other: "MissionSchedule") -> "MissionSchedule":
        return MissionSchedule(self.epochs + other.epochs)


def random_mission(
    *,
    apps: Sequence[str],
    frequencies: Sequence[float],
    n_epochs: int,
    epoch_hours: float,
    seed: int = 0,
) -> MissionSchedule:
    """A seeded random mission: uniform draws over apps x frequencies.

    This is the adversary's population seed and the lifetime CLI's
    default schedule source.

    Raises:
        WorkloadError: on empty choice sets or a non-positive epoch count.
    """
    if not apps or not frequencies:
        raise WorkloadError("need at least one app and one frequency")
    if n_epochs <= 0:
        raise WorkloadError("n_epochs must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3155]))
    epochs = tuple(
        MissionEpoch(
            app=str(apps[int(rng.integers(0, len(apps)))]),
            frequency_hz=float(frequencies[int(rng.integers(0, len(frequencies)))]),
            hours=epoch_hours,
        )
        for _ in range(n_epochs)
    )
    return MissionSchedule(epochs)


def preload_hierarchy(hierarchy, generator: TraceGenerator) -> None:
    """Warm a memory hierarchy as if the program had run for a long time.

    The paper fast-forwards 1.5 billion instructions before measuring;
    at our trace lengths the equivalent steady state is reached by
    preloading the hot data set into L1D+L2, the warm set into L2, and
    the code into L1I+L2 before simulation starts.
    """
    for block in generator.warm_blocks():
        hierarchy.l2.lookup(int(block))
    for block in generator.hot_blocks():
        hierarchy.l2.lookup(int(block))
        hierarchy.l1d.lookup(int(block))
    for block in generator.code_blocks():
        hierarchy.l2.lookup(int(block))
        hierarchy.l1i.lookup(int(block))
