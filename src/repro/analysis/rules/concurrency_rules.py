"""RPR201 — interprocedural shared-state race rule.

A *project-scoped* rule: instead of one file's AST it walks the merged
call graph and the concurrency model derived from it
(:mod:`repro.analysis.concurrency`), because a write is only a race
once the writing function is reachable from a thread boundary two
calls away — nothing visible at a single call site.

Findings anchor at concrete source lines, so inline
``# repro: ignore[RPR201]`` suppressions work unchanged.  Test files
never enter the snapshot: fixtures violate concurrency discipline on
purpose.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.concurrency import ProjectSnapshot
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import ProjectRule, register

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
