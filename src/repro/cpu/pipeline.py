"""The out-of-order pipeline engine.

A trace-driven cycle loop with the classic three-stage skeleton:

1. **retire** — in-order, up to ``retire_width`` completed entries per
   cycle; stores write the D-cache at retire (write-buffer style).
2. **issue** — oldest-first over the *ready* entries, those whose
   register sources are complete; an entry issues when a functional unit
   is free, bounded by the issue width (= Σ active functional units, per
   the paper).  Loads generate their address (1 cycle on an AGEN unit),
   check store-to-load forwarding, then access the hierarchy; MSHR
   exhaustion makes them retry.
3. **fetch/dispatch** — up to ``fetch_width`` per cycle into the window
   and LSQ, with I-cache misses, a taken-branch fetch break, and
   mispredicted branches blocking fetch until they resolve plus a
   redirect penalty.

Stall cycles where nothing retires are attributed to *memory* when the
window head (or the starving fetch unit) is waiting on an off-chip
access, else to the *core*; this decomposition drives the DVS
frequency-scaling model.

The loop is event-driven but cycle-exact.  Readiness comes from wakeup
rather than a rescan of the window: a dispatched entry waits on its
first producer that has not issued, and once all have issued it is
queued by the cycle its last source value is ready.  A cycle that
retires nothing, attempts no issue and leaves fetch untouched is
followed by identical cycles until the next event (the head completing,
a queued entry becoming ready, fetch unblocking), so the loop jumps
straight there and attributes the skipped stall cycles in one step.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from operator import attrgetter

from repro.config.microarch import MicroarchConfig
from repro.config.technology import STRUCTURE_NAMES
from repro.cpu.branch import BimodalAgreePredictor, ReturnAddressStack
from repro.cpu.caches import MemoryHierarchy
from repro.cpu.functional_units import FunctionalUnits
from repro.cpu.isa import MISPREDICT_REDIRECT_PENALTY, OP_LATENCY, FuKind
from repro.cpu.lsq import LoadStoreQueue
from repro.cpu.regfile import RegisterFileModel
from repro.cpu.stats import SimulationStats
from repro.cpu.window import ISSUED, InstructionWindow, WindowEntry
from repro.errors import SimulationError
from repro.workloads.trace import OpClass, Trace

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)
_CALL = int(OpClass.CALL)
_RETURN = int(OpClass.RETURN)
#: Op timing indexed by the op's int value.
_TIMING = [OP_LATENCY[OpClass(op)] for op in range(len(OpClass))]
_NOT_DONE = WindowEntry.NOT_DONE
_by_age = attrgetter("idx")

#: Deadlock guard: no real run needs this many cycles per instruction.
_MAX_CPI = 400


class PipelineEngine:
    """One simulation of one trace on one microarchitecture.

    Args:
        trace: the dynamic instruction stream.
        config: microarchitectural configuration (base or adapted).
        hierarchy: memory hierarchy; a fresh (cold) one is built if not
            supplied.  Passing a warmed hierarchy lets callers chain
            phases of the same application.
        predictor: branch predictor, likewise chainable across phases.
    """

    def __init__(
        self,
        trace: Trace,
        config: MicroarchConfig,
        hierarchy: MemoryHierarchy | None = None,
        predictor: BimodalAgreePredictor | None = None,
        record_timeline: bool = False,
    ) -> None:
        self.trace = trace
        self.config = config
        self.hierarchy = hierarchy or MemoryHierarchy()
        self.predictor = predictor or BimodalAgreePredictor(config.bpred_bytes)
        self.ras = ReturnAddressStack(config.ras_entries)
        self.window = InstructionWindow(config.window_size)
        self.lsq = LoadStoreQueue(config.memory_queue_size)
        self.fus = FunctionalUnits(config)
        self.regfile = RegisterFileModel(config)
        # Per-instruction completion cycles (value-ready times).
        self._comp = [WindowEntry.NOT_DONE] * len(trace)
        self._bpred_accesses = 0
        self._ras_mispredicts = 0
        self._mem_stall_cycles = 0
        self._final_cycles = 0
        if record_timeline:
            import numpy as np

            n = len(trace)
            self._tl = {
                "fetch": np.full(n, -1, dtype=np.int64),
                "issue": np.full(n, -1, dtype=np.int64),
                "complete": np.full(n, -1, dtype=np.int64),
                "retire": np.full(n, -1, dtype=np.int64),
            }
        else:
            self._tl = None
        # Shared components (hierarchy, predictor) may be warm from earlier
        # phases; snapshot their counters so stats report this run only.
        self._base_counts = {
            "l1d_acc": self.hierarchy.l1d.accesses,
            "l1d_miss": self.hierarchy.l1d.misses,
            "l1i_acc": self.hierarchy.l1i.accesses,
            "l1i_miss": self.hierarchy.l1i.misses,
            "l2_acc": self.hierarchy.l2.accesses,
            "l2_miss": self.hierarchy.l2.misses,
            "bp_lookups": self.predictor.lookups,
            "bp_miss": self.predictor.mispredicts,
        }

    # ------------------------------------------------------------------

    def run(self) -> SimulationStats:
        """Execute the whole trace and return its statistics.

        Raises:
            SimulationError: if the pipeline exceeds the deadlock guard.
        """
        trace, config = self.trace, self.config
        n = len(trace)
        # Columns of small ints become lists: they index several times
        # faster than numpy scalars and hold cached int objects, so cost
        # one pointer an instruction.  The 64-bit address and pc columns
        # would need an int object per element, so are read with .item.
        ops = trace.op.tolist()
        dep1s = trace.dep1.tolist()
        dep2s = trace.dep2.tolist()
        addr_at = trace.addr.item
        takens = trace.taken.tolist()
        pc_at = trace.pc.item
        fp_dests = trace.fp_dest.tolist()
        issue_width = config.issue_width
        retire_width = config.retire_width
        fetch_width = config.fetch_width
        hierarchy, lsq, window = self.hierarchy, self.lsq, self.window
        l1_hit = hierarchy.latencies.l1_hit
        window_capacity = window.capacity
        in_flight = window.entries
        comp = self._comp
        tl = self._tl
        pools = [self.fus.pools[timing.fu] for timing in _TIMING]
        cycle = 0
        retired = 0
        fetch_idx = 0
        fetch_blocked_until = 0
        fetch_block_offchip_until = -1
        blocking_branch: WindowEntry | None = None
        last_fetch_block = -1
        max_cycles = _MAX_CPI * n + 10_000

        # Wakeup: a dispatched entry is parked on its first producer that
        # has not issued; once every producer has issued it waits in
        # ``pending`` keyed by the cycle its last source value is ready,
        # then moves to ``ready`` (oldest first), the only entries the
        # issue stage looks at.
        parked: dict[int, list[WindowEntry]] = {}
        pending: list[tuple[int, int, WindowEntry]] = []
        ready: list[WindowEntry] = []

        def schedule(entry: WindowEntry) -> None:
            i = entry.idx
            ready_at = 0
            d = dep1s[i]
            if d:
                ready_at = comp[i - d]
                if ready_at == _NOT_DONE:
                    parked.setdefault(i - d, []).append(entry)
                    return
            d = dep2s[i]
            if d:
                c = comp[i - d]
                if c == _NOT_DONE:
                    parked.setdefault(i - d, []).append(entry)
                    return
                if c > ready_at:
                    ready_at = c
            heappush(pending, (ready_at, i, entry))

        while retired < n:
            if cycle > max_cycles:
                raise SimulationError(
                    f"deadlock guard tripped at cycle {cycle} "
                    f"({retired}/{n} retired) on {trace.name!r}"
                )

            # ---- retire ------------------------------------------------
            n_retired = 0
            while n_retired < retire_width and in_flight:
                head = in_flight[0]
                if head.state != ISSUED or head.comp > cycle:
                    break
                i = head.idx
                if head.op == _STORE:
                    res = hierarchy.data_access(addr_at(i), cycle, write=True)
                    if res is None:  # MSHR full: retry next cycle
                        break
                if head.op == _LOAD or head.op == _STORE:
                    lsq.remove(i)
                if tl is not None:
                    tl["retire"][i] = cycle
                window.retire_head()
                retired += 1
                n_retired += 1
            if n_retired == 0 and retired < n:
                self._attribute_stalls(cycle, cycle + 1, fetch_block_offchip_until)

            # ---- issue ---------------------------------------------------
            while pending and pending[0][0] <= cycle:
                insort(ready, heappop(pending)[2], key=_by_age)
            attempted = bool(ready)
            if ready:
                issued = 0
                still_ready = []
                for pos, entry in enumerate(ready):
                    if issued >= issue_width:
                        still_ready.extend(ready[pos:])
                        break
                    i = entry.idx
                    op = entry.op
                    timing = _TIMING[op]
                    # A failed attempt leaves the entry ready for the next
                    # cycle.  A load that finds every MSHR busy has
                    # already claimed its AGEN slot and searched the LSQ:
                    # both are wasted, exactly as a structural replay is.
                    if not pools[op].try_issue(cycle, timing):
                        still_ready.append(entry)
                        continue
                    if op == _LOAD:
                        addr = addr_at(i)
                        lsq.set_address(i, addr)
                        if lsq.forwarding_store(i, addr):
                            entry.comp = cycle + timing.latency + 1  # agen + forward
                            entry.offchip = False
                        else:
                            res = hierarchy.data_access(addr, cycle + 1)
                            if res is None:
                                still_ready.append(entry)
                                continue
                            entry.offchip = res.off_chip
                            entry.comp = cycle + timing.latency + res.latency
                    elif op == _STORE:
                        # Completes once its address is generated; the
                        # cache write happens at retire (write buffer).
                        lsq.set_address(i, addr_at(i))
                        entry.comp = cycle + timing.latency
                    else:
                        entry.comp = cycle + timing.latency
                    entry.state = ISSUED
                    comp[i] = entry.comp
                    if tl is not None:
                        tl["issue"][i] = cycle
                        tl["complete"][i] = entry.comp
                    n_src = (1 if dep1s[i] else 0) + (1 if dep2s[i] else 0)
                    self.regfile.record_issue(op, n_src, entry.fp_dest)
                    window.issues += 1
                    issued += 1
                    if entry.mispredicted:
                        fetch_blocked_until = entry.comp + MISPREDICT_REDIRECT_PENALTY
                        blocking_branch = None
                    for consumer in parked.pop(i, ()):
                        schedule(consumer)
                ready = still_ready

            # ---- fetch / dispatch ---------------------------------------
            fetch_active = False
            if blocking_branch is None and cycle >= fetch_blocked_until:
                fetched = 0
                while fetched < fetch_width and fetch_idx < n:
                    if len(in_flight) >= window_capacity:
                        break
                    op = ops[fetch_idx]
                    is_mem = op == _LOAD or op == _STORE
                    if is_mem and lsq.full:
                        break
                    pc = pc_at(fetch_idx)
                    block = pc >> 6
                    if block != last_fetch_block:
                        fetch_active = True
                        res = hierarchy.inst_access(pc)
                        last_fetch_block = block
                        if res.latency > l1_hit:
                            fetch_blocked_until = cycle + res.latency
                            if res.off_chip:
                                fetch_block_offchip_until = fetch_blocked_until
                            break
                    entry = WindowEntry(fetch_idx, op, fp_dests[fetch_idx])
                    stop_after = False
                    if op == _BRANCH:
                        self._bpred_accesses += 2  # lookup + update
                        taken = takens[fetch_idx]
                        if self.predictor.update(pc, taken):
                            entry.mispredicted = True
                            blocking_branch = entry
                            stop_after = True
                        elif taken:
                            stop_after = True  # taken-branch fetch break
                    elif op == _CALL:
                        # Direct call: target known at fetch; push the
                        # return address for the matching RETURN.
                        self._bpred_accesses += 1
                        self.ras.push(pc + 4)
                        stop_after = True  # taken-transfer fetch break
                    elif op == _RETURN:
                        self._bpred_accesses += 1
                        predicted = self.ras.pop()
                        actual = pc_at(fetch_idx + 1) if fetch_idx + 1 < n else predicted
                        if predicted != actual:
                            self._ras_mispredicts += 1
                            entry.mispredicted = True
                            blocking_branch = entry
                        stop_after = True
                    if is_mem:
                        lsq.insert(fetch_idx, op == _STORE)
                    if tl is not None:
                        tl["fetch"][fetch_idx] = cycle
                    window.dispatch(entry)
                    schedule(entry)
                    fetch_idx += 1
                    fetched += 1
                    fetch_active = True
                    if stop_after:
                        break

            # ---- idle-cycle skip ----------------------------------------
            # A cycle that retired nothing, attempted no issue and left
            # fetch untouched changes no state, and neither will any cycle
            # after it until the next event: the head completing, a
            # pending entry becoming ready, or fetch unblocking.  Jump
            # there, crediting the skipped cycles' stalls.
            cycle += 1
            if n_retired or attempted or fetch_active:
                continue
            wake = max_cycles + 1
            if in_flight:
                head = in_flight[0]
                if head.state == ISSUED:
                    if head.comp < cycle:
                        continue  # a store retrying for an MSHR
                    wake = min(wake, head.comp)
            if pending:
                wake = min(wake, pending[0][0])
            if blocking_branch is None and fetch_blocked_until >= cycle:
                wake = min(wake, fetch_blocked_until)
            if wake > cycle:
                self._attribute_stalls(cycle, wake, fetch_block_offchip_until)
                cycle = wake

        self._final_cycles = cycle
        return self._build_stats(cycle, n)

    # ------------------------------------------------------------------

    def timeline(self):
        """The recorded per-instruction timeline.

        Raises:
            SimulationError: if the engine was not constructed with
                ``record_timeline=True`` or has not run yet.
        """
        from repro.cpu.timeline import Timeline

        if self._tl is None:
            raise SimulationError("engine was not recording a timeline")
        if self._final_cycles == 0:
            raise SimulationError("run() has not completed yet")
        return Timeline(
            fetch=self._tl["fetch"],
            issue=self._tl["issue"],
            complete=self._tl["complete"],
            retire=self._tl["retire"],
            trace=self.trace,
            cycles=self._final_cycles,
        )

    def _attribute_stalls(
        self, start: int, stop: int, fetch_block_offchip_until: int
    ) -> None:
        """Classify the zero-retire cycles ``start .. stop - 1``, across
        which the window does not change, as memory- or core-bound."""
        head = self.window.head()
        if head is not None:
            if head.state == ISSUED and head.offchip:
                self._mem_stall_cycles += stop - start
            # else: core stall (dependences, FU contention, dividers...)
        elif start < fetch_block_offchip_until:
            # Fetch starved by an off-chip miss.
            self._mem_stall_cycles += min(stop, fetch_block_offchip_until) - start

    # ------------------------------------------------------------------

    def _build_stats(self, cycles: int, instructions: int) -> SimulationStats:
        config = self.config
        h = self.hierarchy
        base = self._base_counts
        int_traffic, fp_traffic = self.regfile.traffic()
        issue_width = config.issue_width

        def clamp(x: float) -> float:
            return min(1.0, max(0.0, x))

        def rate(acc_key: str, miss_key: str) -> float:
            accesses = {
                "l1d_acc": h.l1d.accesses,
                "l1i_acc": h.l1i.accesses,
                "l2_acc": h.l2.accesses,
            }[acc_key] - base[acc_key]
            misses = {
                "l1d_miss": h.l1d.misses,
                "l1i_miss": h.l1i.misses,
                "l2_miss": h.l2.misses,
            }[miss_key] - base[miss_key]
            return misses / accesses if accesses else 0.0

        l1d_accesses = h.l1d.accesses - base["l1d_acc"]
        l1i_accesses = h.l1i.accesses - base["l1i_acc"]
        bp_lookups = self.predictor.lookups - base["bp_lookups"]
        bp_miss = self.predictor.mispredicts - base["bp_miss"]

        ipc = instructions / cycles
        activity = {
            "ialu": self.fus.utilization(FuKind.IALU, cycles),
            "fpu": self.fus.utilization(FuKind.FPU, cycles),
            "agen": self.fus.utilization(FuKind.AGEN, cycles),
            "l1i": clamp(l1i_accesses / cycles),
            "l1d": clamp(l1d_accesses / (2 * cycles)),
            "bpred": clamp(self._bpred_accesses / (2 * cycles)),
            "window": clamp(
                (self.window.dispatches + self.window.issues)
                / ((config.fetch_width + issue_width) * cycles)
            ),
            "intreg": clamp(int_traffic / (3 * issue_width * cycles)),
            "fpreg": clamp(fp_traffic / (3 * issue_width * cycles)),
            "lsq": clamp((self.lsq.inserts + self.lsq.searches) / (2 * cycles)),
            "other": clamp(1.5 * ipc / config.fetch_width),
        }
        assert set(activity) == set(STRUCTURE_NAMES)
        return SimulationStats(
            instructions=instructions,
            cycles=cycles,
            config=config,
            activity=activity,
            mem_stall_cycles=self._mem_stall_cycles,
            branch_mispredict_rate=(bp_miss / bp_lookups) if bp_lookups else 0.0,
            l1d_miss_rate=rate("l1d_acc", "l1d_miss"),
            l1i_miss_rate=rate("l1i_acc", "l1i_miss"),
            l2_miss_rate=rate("l2_acc", "l2_miss"),
            lsq_forwards=self.lsq.forwards,
            ras_mispredicts=self._ras_mispredicts,
        )
