"""RPR201–205 — interprocedural concurrency-safety rules.

These are the first *project-scoped* rules: instead of one file's AST
they walk the merged call graph and the concurrency model derived from
it (:mod:`repro.analysis.concurrency`), because none of the bugs they
hunt is visible at a single call site:

- RPR201: a write is only a race once the writing function is reachable
  from a thread boundary two calls away;
- RPR203: the object crossing ``run_in_executor`` is unsafe because of
  mutations in a *different* file;
- RPR205: whether a resource leaks depends on every exit of the
  call-graph region that owns it.

All five anchor their findings at concrete source lines, so inline
``# repro: ignore[RPR20x]`` suppressions work unchanged.  Test files never enter the snapshot: fixtures violate
concurrency discipline on purpose.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.concurrency import ProjectSnapshot
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import ProjectRule, register

#: Thread constructor spellings for the unjoined-thread check.
_THREAD_CTORS = {"Thread", "threading.Thread"}


def _short(qual: str) -> str:
    """``repro.serve.service.DecisionService._flush`` -> ``DecisionService._flush``."""
    parts = qual.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qual


@register
class SharedStateWithoutLock(ProjectRule):
    id = "RPR201"
    name = "shared-write-unlocked"
    severity = Severity.ERROR
    description = (
        "shared mutable attribute written from thread-reachable code "
        "without a consistent lock domain"
    )
    rationale = """\
A function submitted to the worker pool (run_in_executor, pool.submit,
Thread(target=...)) runs concurrently with the event loop and with
other workers.  Any attribute it writes — directly or through callees —
must be protected by one lock held at every write site; a site outside
that common domain is a data race, even when each individual file looks
single-threaded.  Attributes confined to a thread (stored behind
threading.local, or owned by a class only ever built per-thread) are
exempt, as are plain flag assignments (a torn bool is not this bug
class)."""
    example = """\
class Platform:
    def evaluate(self, grid):
        if self._kernel is None:
            self._kernel = BatchKernel(self.spec)   # RPR201: worker
            # threads race the lazy build; hold a lock or build eagerly
        return self._kernel.run(grid)"""

    def check_project(self, snapshot: ProjectSnapshot) -> Iterator[Finding]:
        model = snapshot.model
        for (owner, attr), sites in sorted(model.writes.items()):
            if owner and owner in model.per_thread_classes:
                continue
            if owner and owner not in model.shared_classes:
                # Instances never visible to more than one thread at a
                # time (e.g. built fresh per call) cannot race.
                continue
            if owner and model.attr_exempt(owner, attr):
                continue
            interesting = model.interesting_sites(sites)
            if not interesting:
                continue
            threaded = [
                s for s in interesting if s.func in model.thread_colored
            ]
            if not threaded:
                continue
            if model.common_lock_domain(interesting):
                continue
            # Anchor at the first thread-reachable site whose own lock
            # set is empty; if every site holds *some* lock the domains
            # merely disagree — anchor at the first threaded site.
            unlocked = [s for s in threaded if not s.locks]
            site = (unlocked or threaded)[0]
            what = (
                f"module global '{attr.split('.')[-1]}'"
                if not owner
                else f"attribute '{attr}' of {owner.rsplit('.', 1)[-1]}"
            )
            chain = model.chain_for(site.func)
            others = len(interesting) - 1
            detail = (
                f"; {others} other write site(s) share no common lock"
                if others
                else ""
            )
            yield self.finding_at(
                snapshot,
                site.rel_path,
                site.line,
                site.col,
                f"{what} is written without a consistent lock domain on a "
                f"thread-reachable path ({chain}){detail}",
                context=f"write:{owner or '<module>'}:{attr}",
            )


@register
class LockHeldAcrossAwait(ProjectRule):
    id = "RPR202"
    name = "lock-across-await"
    severity = Severity.ERROR
    description = "threading lock held across an await point"
    rationale = """\
`with self._lock:` around an `await` keeps a *threading* lock held
while the coroutine is suspended — every worker thread that touches the
same lock then blocks for the full await latency (convoying), and a
worker that itself awaits the loop completes the deadlock cycle.  Use
`asyncio.Lock` with `async with` for loop-side exclusion, or release
the lock before awaiting."""
    example = """\
async def flush(self):
    with self._lock:              # RPR202: threading lock ...
        await self._drain()       # ... held across this await"""

    def check_project(self, snapshot: ProjectSnapshot) -> Iterator[Finding]:
        graph = snapshot.graph
        for qual, node in sorted(graph.nodes.items()):
            if not node.is_async:
                continue
            for wrec in node.raw.get("withs", []):
                if wrec.get("async") or not wrec.get("awaits"):
                    continue
                if not self._is_threading_lock(snapshot, node, wrec["expr"]):
                    continue
                yield self.finding_at(
                    snapshot,
                    node.rel_path,
                    wrec["line"],
                    1,
                    f"{_short(qual)} holds threading lock "
                    f"'{wrec['expr']}' across an await (first await at "
                    f"line {wrec['awaits'][0]}); use asyncio.Lock or "
                    f"release before awaiting",
                    context=f"lock-await:{qual}:{wrec['expr']}",
                )

    @staticmethod
    def _is_threading_lock(
        snapshot: ProjectSnapshot, node, expr: str
    ) -> bool:
        graph = snapshot.graph
        parts = expr.split(".")
        if parts[0] == "self" and node.owner_class is not None:
            return graph.attr_type(node.owner_class, parts[1]) == "lock"
        vtype = graph._resolve_var_type(node, f"var:{parts[0]}")
        if vtype == "lock":
            return True
        resolved = graph.resolve_symbol(node.module, expr)
        if resolved in ("threading.Lock", "threading.RLock"):
            return True
        # Name heuristic for module-level locks the types can't see.
        return parts[-1].lower().endswith("lock") and vtype != "asynclock"


@register
class UnsafeObjectCrossesThread(ProjectRule):
    id = "RPR203"
    name = "unsafe-cross-thread"
    severity = Severity.ERROR
    description = (
        "non-thread-safe object crosses a thread boundary "
        "(run_in_executor / Thread / pool submission)"
    )
    rationale = """\
Submitting a bound method to the worker pool ships its whole instance
across the thread boundary.  If that class mutates plain dict/list/set
attributes outside __init__ with no lock held — and owns no lock at
all — every such container is corruptible the moment two submissions
overlap.  Classes with any lock attribute are assumed to have a
discipline (RPR201 checks the discipline itself); thread-confined
(threading.local) instances are exempt."""
    example = """\
log = EventLog()          # mutates self.events with no lock
loop.run_in_executor(pool, log.emit, "tick")   # RPR203: EventLog
# is not thread-safe; give it a lock or keep it on the loop"""

    def check_project(self, snapshot: ProjectSnapshot) -> Iterator[Finding]:
        model = snapshot.model
        seen: set[tuple[str, int, str]] = set()
        for edge in snapshot.graph.boundary_edges(("thread", "executor")):
            callee = snapshot.graph.nodes.get(edge.callee)
            caller = snapshot.graph.nodes.get(edge.caller)
            if callee is None or caller is None:
                continue
            owner = callee.owner_class
            if owner is None or owner in model.per_thread_classes:
                continue
            unsafe_attr = model.class_is_thread_unsafe(owner)
            if unsafe_attr is None:
                continue
            key = (caller.rel_path, edge.line, owner)
            if key in seen:
                continue
            seen.add(key)
            yield self.finding_at(
                snapshot,
                caller.rel_path,
                edge.line,
                1,
                f"{owner.rsplit('.', 1)[-1]}.{edge.callee.rsplit('.', 1)[-1]} "
                f"crosses a thread boundary but the class mutates "
                f"'{unsafe_attr}' without any lock; protect it or keep the "
                f"instance on one thread",
                context=f"cross-thread:{edge.caller}:{edge.callee}",
            )


@register
class FireAndForget(ProjectRule):
    id = "RPR204"
    name = "fire-and-forget"
    severity = Severity.ERROR
    description = (
        "task result dropped (no reference, await, or done-callback) "
        "or thread started without join/ownership"
    )
    rationale = """\
`create_task` keeps only a weak reference to its task: a dropped result
can be garbage-collected mid-flight, and its exceptions vanish instead
of failing the request.  Hold the task (and add a done-callback or
await it), as MicroBatcher does with its flush-task set.  Similarly a
`Thread(...).start()` whose instance is never stored or joined cannot
be waited for at shutdown — the process exits under it."""
    example = """\
async def shutdown(self):
    asyncio.create_task(self._drain())   # RPR204: dropped — GC may
    # cancel it mid-drain and its exceptions are never observed"""

    def check_project(self, snapshot: ProjectSnapshot) -> Iterator[Finding]:
        graph = snapshot.graph
        for qual, node in sorted(graph.nodes.items()):
            raw = node.raw
            for rec in raw.get("calls", []):
                if rec.get("tkind") == "task" and rec.get("dropped"):
                    yield self.finding_at(
                        snapshot, node.rel_path, rec["line"], rec["col"],
                        f"{_short(qual)} drops the result of "
                        f"{rec.get('name') or 'create_task'}(); keep a "
                        f"reference and add a done-callback or await it",
                        context=(
                            f"dropped-task:{qual}:"
                            f"{rec.get('name') or 'create_task'}"
                        ),
                    )
                if (
                    rec.get("recv_call") in _THREAD_CTORS
                    and rec.get("attr") == "start"
                ):
                    yield self.finding_at(
                        snapshot, node.rel_path, rec["line"], rec["col"],
                        f"{_short(qual)} starts a Thread on a temporary "
                        f"instance; store it so shutdown can join it",
                        context=f"temp-thread:{qual}",
                    )
            yield from self._unjoined_locals(snapshot, qual, node)

    def _unjoined_locals(
        self, snapshot: ProjectSnapshot, qual: str, node
    ) -> Iterator[Finding]:
        raw = node.raw
        graph = snapshot.graph
        escaped = set(raw.get("escaped", ()))
        joined = set(raw.get("joined", ()))
        stored = {
            w["type"][4:]
            for w in raw.get("writes", ())
            if w.get("type", "") and str(w.get("type")).startswith("var:")
            and w["target"].startswith("self.")
        }
        for var, vtype in raw.get("vartypes", {}).items():
            if not vtype.startswith("call:"):
                continue
            if graph.resolve_symbol(node.module, vtype[5:]) != "threading.Thread":
                continue
            start = next(
                (
                    rec
                    for rec in raw.get("calls", ())
                    if rec.get("name") == f"{var}.start"
                ),
                None,
            )
            if start is None:
                continue
            if var in joined or var in escaped or var in stored:
                continue
            yield self.finding_at(
                snapshot, node.rel_path, start["line"], start["col"],
                f"{_short(qual)} starts thread '{var}' but never joins, "
                f"stores, or returns it; it cannot be waited for at "
                f"shutdown",
                context=f"unjoined-thread:{qual}:{var}",
            )


@register
class ResourceLeak(ProjectRule):
    id = "RPR205"
    name = "resource-leak"
    severity = Severity.ERROR
    description = (
        "file/socket/executor acquired without close(), with-block, or "
        "ownership transfer on its exits"
    )
    rationale = """\
A file, socket, or executor acquired outside a `with` block must reach
a close()/shutdown() on every exit, escape to the caller (returned,
yielded, passed on), or be stored on self with some method of the class
closing it.  Anything else leaks a kernel handle per call — fatal for a
long-running service under fd limits."""
    example = """\
def warm(self, path):
    handle = open(path)        # RPR205: no close() on any exit and
    return handle.read()       # the handle itself never escapes"""

    def check_project(self, snapshot: ProjectSnapshot) -> Iterator[Finding]:
        graph = snapshot.graph
        for qual, node in sorted(graph.nodes.items()):
            raw = node.raw
            escaped = set(raw.get("escaped", ()))
            closes = set(raw.get("closes", ()))
            joined = set(raw.get("joined", ()))
            with_vars = set(raw.get("with_vars", ()))
            self_stored: dict[str, str] = {
                w["type"][4:]: w["target"]
                for w in raw.get("writes", ())
                if str(w.get("type") or "").startswith("var:")
                and w["target"].startswith("self.")
            }
            for res in raw.get("resources", ()):
                if res.get("in_with"):
                    continue
                assigned = res.get("assigned")
                if assigned is None:
                    yield self.finding_at(
                        snapshot, node.rel_path, res["line"], res["col"],
                        f"{_short(qual)} acquires a {res['type']} "
                        f"({res['ctor']}) and drops the handle; use a "
                        f"with-block",
                        context=f"leak-dropped:{qual}:{res['ctor']}",
                    )
                    continue
                if assigned.startswith("self."):
                    if self._class_closes(graph, node, assigned):
                        continue
                    yield self.finding_at(
                        snapshot, node.rel_path, res["line"], res["col"],
                        f"{_short(qual)} stores a {res['type']} on "
                        f"'{assigned}' but no method of the class ever "
                        f"closes it",
                        context=f"leak-unclosed:{qual}:{assigned}",
                    )
                    continue
                if (
                    assigned in escaped
                    or assigned in closes
                    or assigned in joined
                    or assigned in with_vars
                ):
                    continue
                if assigned in self_stored:
                    target = self_stored[assigned]
                    if self._class_closes(graph, node, target):
                        continue
                yield self.finding_at(
                    snapshot, node.rel_path, res["line"], res["col"],
                    f"{_short(qual)} acquires a {res['type']} "
                    f"({res['ctor']}) with no close()/with on its exits "
                    f"and the handle never escapes",
                    context=f"leak-local:{qual}:{assigned}",
                )

    @staticmethod
    def _class_closes(graph, node, self_attr: str) -> bool:
        """Some method of the owning class closes ``self.<attr>``."""
        owner = node.owner_class
        if owner is None:
            return False
        for other in graph.nodes.values():
            if other.owner_class != owner:
                continue
            if self_attr in other.raw.get("closes", ()):
                return True
        return False
