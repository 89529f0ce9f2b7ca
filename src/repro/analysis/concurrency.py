"""Escape analysis and lock-domain tracking over the call graph.

Built on :mod:`repro.analysis.callgraph`, this module answers the
questions RPR201 asks:

- **Coloring** — which functions can run on a worker thread: the
  targets of ``run_in_executor`` / ``Thread(target=...)`` /
  thread-pool ``submit`` edges plus everything they reach through
  plain calls, closures and ``partial``.

- **Per-thread classes** — a class whose instances are only ever stored
  behind a ``threading.local`` attribute (``self._local.bundle =
  _Bundle(...)``) is *thread-confined*: each thread sees its own
  instance, so its unlocked internal caches are safe.  Confinement is
  transitive through construction: classes instantiated in a per-thread
  class's ``__init__`` and kept on ``self`` inherit it.

- **Attribute classification** — every ``self.<attr>`` write in the
  project, grouped by (class, attribute), each site carrying its
  operation, the lock domain held at the write (the stack of ``with
  <lock>`` scopes), and the writing function's colors.  In-place
  mutator calls (``self._memo.pop(...)``) count as writes.

The lattice a (class, attribute) lands in:

    per-thread-confined  <  shared-with-locks  <  shared-unlocked

Only the last is a finding (RPR201); the rule in
:mod:`repro.analysis.rules.concurrency_rules` walks this model rather
than ASTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.callgraph import MUTATOR_METHODS, CallGraph
from repro.analysis.findings import Finding
from repro.analysis.suppressions import SuppressionIndex

#: Resolved attribute types that can never be a data race by themselves.
_EXEMPT_ATTR_TYPES = {"lock", "asynclock", "local", "threadpool",
                      "processpool"}

#: Functions where writes are construction, not mutation.
_INIT_METHODS = {"__init__", "__post_init__", "__set_name__"}


@dataclass(frozen=True)
class WriteSite:
    """One write to a (class, attribute) or module global."""

    func: str          # writing function's qualname
    rel_path: str
    line: int
    col: int
    op: str            # assign | aug | item | mutcall
    locks: tuple[str, ...]
    vtype: str | None  # harvested value-type expression (assign only)
    in_init: bool


@dataclass
class ConcurrencyModel:
    """The derived concurrency facts for one project (see module doc)."""

    graph: CallGraph
    thread_colored: set[str] = field(default_factory=set)
    thread_entries: set[str] = field(default_factory=set)
    per_thread_classes: set[str] = field(default_factory=set)
    #: (class qualname, attr) -> write sites;  ("", "module.NAME") for
    #: module globals.
    writes: dict[tuple[str, str], list[WriteSite]] = field(
        default_factory=dict
    )

    #: Classes whose instances are reachable from a shared root.
    shared_classes: set[str] = field(default_factory=set)

    @classmethod
    def build(cls, graph: CallGraph) -> "ConcurrencyModel":
        model = cls(graph=graph)
        model._color()
        model._find_per_thread_classes()
        model._find_shared_classes()
        model._collect_writes()
        return model

    # ---- coloring ------------------------------------------------------

    def _color(self) -> None:
        self.thread_entries = {
            e.callee for e in self.graph.boundary_edges(("thread", "executor"))
        }
        self.thread_colored = self.graph.reachable_from(
            self.thread_entries, kinds=("call", "closure", "partial")
        )

    def chain_for(self, func: str) -> str:
        """`entry -> ... -> func`, the thread-side path for messages."""
        chain = self.graph.chain_to(func, self.thread_entries)
        names = [q.rsplit(".", 2)[-1] if q.count(".") < 2
                 else ".".join(q.rsplit(".", 2)[-2:]) for q in chain]
        return " -> ".join(names)

    # ---- per-thread confinement ---------------------------------------

    def _find_per_thread_classes(self) -> None:
        confined: set[str] = set()
        for node in self.graph.nodes.values():
            owner = node.owner_class
            if owner is None:
                continue
            for write in node.raw.get("writes", []):
                if write.get("sub") is None:
                    continue
                if self.graph.attr_type(owner, write["attr"]) != "local":
                    continue
                vtype = self.graph._resolve_var_type(node, write.get("type"))
                if vtype is not None and vtype in self.graph.classes:
                    confined.add(vtype)
        # Transitive: what a per-thread class *constructs* and keeps in
        # ``__init__`` is per-thread too.  Param-passed objects are
        # deliberately excluded — ``self.platform = platform or
        # Platform(...)`` may bind the one shared platform every bundle
        # receives, so confinement must not leak through it.
        frontier = list(confined)
        while frontier:
            cqual = frontier.pop()
            for init in _INIT_METHODS:
                node = self.graph.nodes.get(f"{cqual}.{init}")
                if node is None:
                    continue
                for write in node.raw.get("writes", []):
                    if write["op"] != "assign" or write.get("sub") is not None:
                        continue
                    if not write["target"].startswith("self."):
                        continue
                    if not str(write.get("type") or "").startswith("call:"):
                        continue
                    vtype = self.graph._resolve_var_type(
                        node, write.get("type")
                    )
                    if (
                        vtype in self.graph.classes
                        and vtype not in confined
                    ):
                        confined.add(vtype)
                        frontier.append(vtype)
        self.per_thread_classes = confined

    # ---- instance sharing ---------------------------------------------

    def _find_shared_classes(self) -> None:
        """Classes whose *instances* can be visible to several threads.

        Roots: classes whose bound methods cross a thread boundary
        (their whole instance ships with the method) and classes
        instantiated at module level (import-time singletons).  Sharing
        then propagates through attribute types — ``service.platform``
        makes Platform shared — but never *into* a per-thread class:
        its constructed attrs are per-thread by definition, and its
        param-passed attrs alias objects the root already reaches
        directly.

        A class outside this set (``PipelineEngine`` built fresh inside
        every simulation call) may well run on a worker thread, but
        each call owns its instance, so its unlocked writes are not
        races.
        """
        graph = self.graph
        roots: set[str] = set()
        for edge in graph.boundary_edges(("thread", "executor")):
            callee = graph.nodes.get(edge.callee)
            if callee is not None and callee.owner_class is not None:
                roots.add(callee.owner_class)
        for module, global_types in graph.global_types.items():
            for texpr in global_types.values():
                resolved = graph._resolve_type(module, None, texpr)
                if resolved in graph.classes:
                    roots.add(resolved)
        roots -= self.per_thread_classes
        seen = set(roots)
        frontier = list(roots)
        while frontier:
            cqual = frontier.pop()
            for atype in graph.classes.get(cqual, {}).get(
                "attr_types", {}
            ).values():
                if (
                    atype in graph.classes
                    and atype not in seen
                    and atype not in self.per_thread_classes
                ):
                    seen.add(atype)
                    frontier.append(atype)
        self.shared_classes = seen

    # ---- write collection ---------------------------------------------

    def _collect_writes(self) -> None:
        for qual, node in self.graph.nodes.items():
            owner = node.owner_class
            in_init = qual.rsplit(".", 1)[-1] in _INIT_METHODS
            for write in node.raw.get("writes", []):
                target = write["target"]
                if target.startswith("global:"):
                    key = ("", f"{node.module}.{write['attr']}")
                elif owner is not None and target.startswith("self."):
                    key = (owner, write["attr"])
                else:
                    continue
                self.writes.setdefault(key, []).append(
                    WriteSite(
                        func=qual,
                        rel_path=node.rel_path,
                        line=write["line"],
                        col=write["col"],
                        op=write["op"],
                        locks=tuple(write.get("locks", ())),
                        vtype=write.get("type"),
                        in_init=in_init,
                    )
                )
            # ``self._memo.pop(...)`` — in-place mutator calls are writes.
            for rec in node.raw.get("calls", []):
                name = rec.get("name")
                if name is None:
                    continue
                parts = name.split(".")
                if len(parts) < 3 or parts[0] != "self":
                    continue
                if parts[-1] not in MUTATOR_METHODS:
                    continue
                if owner is None:
                    continue
                self.writes.setdefault((owner, parts[1]), []).append(
                    WriteSite(
                        func=qual,
                        rel_path=node.rel_path,
                        line=rec["line"],
                        col=rec["col"],
                        op="mutcall",
                        locks=tuple(rec.get("locks", ())),
                        vtype=None,
                        in_init=in_init,
                    )
                )

    # ---- classification queries ---------------------------------------

    def attr_exempt(self, cqual: str, attr: str) -> bool:
        """Attr types that can never race (locks, locals, pools)."""
        atype = self.graph.attr_type(cqual, attr)
        return atype in _EXEMPT_ATTR_TYPES

    def interesting_sites(self, sites: list[WriteSite]) -> list[WriteSite]:
        """Post-construction writes that actually mutate shared state.

        Plain flag assignments (``self._closed = True``) are excluded —
        a torn bool is not the bug class RPR201 hunts; object/container
        (re)construction, augmented ops, item stores, and mutator calls
        are.
        """
        out = []
        for site in sites:
            if site.in_init:
                continue
            if site.op == "assign":
                if site.vtype is None or site.vtype.startswith("var:"):
                    continue
            out.append(site)
        return out

    def common_lock_domain(self, sites: list[WriteSite]) -> set[str]:
        """Locks held at *every* given site (empty = no consistent domain)."""
        domain: set[str] | None = None
        for site in sites:
            held = set(site.locks)
            domain = held if domain is None else domain & held
        return domain or set()


# ---------------------------------------------------------------------------
# The project snapshot and its rule runner.
# ---------------------------------------------------------------------------


@dataclass
class ProjectSnapshot:
    """Everything a project-scoped rule sees for one run.

    Built once per analysis from the per-file call-graph harvests.  Test
    files are excluded at construction: fixtures deliberately violate
    concurrency discipline, and their fake threads would poison the
    coloring.
    """

    graph: CallGraph
    model: ConcurrencyModel
    #: rel paths included in the model (non-test, parsed OK).
    rel_paths: set[str]
    #: rel -> physical source lines, for finding snippets.
    lines: dict[str, list[str]]
    #: rel -> the file's inline suppressions.
    suppress: dict[str, SuppressionIndex]

    @classmethod
    def build(
        cls,
        harvests: dict[str, tuple[str | None, dict]],
        lines: dict[str, list[str]],
        suppress: dict[str, SuppressionIndex],
    ) -> "ProjectSnapshot":
        graph = CallGraph.build(harvests)
        return cls(
            graph=graph,
            model=ConcurrencyModel.build(graph),
            rel_paths=set(harvests),
            lines=lines,
            suppress=suppress,
        )

    def snippet(self, rel_path: str, line: int) -> str:
        file_lines = self.lines.get(rel_path, [])
        if 1 <= line <= len(file_lines):
            return file_lines[line - 1].strip()
        return ""

    def is_suppressed(self, finding: Finding) -> bool:
        index = self.suppress.get(finding.path)
        return index is not None and index.covers(finding)


def run_project_rules(
    rules, snapshot: ProjectSnapshot
) -> tuple[list[Finding], list[Finding]]:
    """Run project-scoped rules over one snapshot.

    Returns:
        ``(findings, suppressed)`` — raw, unsorted; the caller merges
        them into its :class:`AnalysisResult`.
    """
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for rule in rules:
        for finding in rule.check_project(snapshot):
            if finding.path not in snapshot.rel_paths:
                continue
            if snapshot.is_suppressed(finding):
                suppressed.append(finding)
            else:
                findings.append(finding)
    return findings, suppressed
