"""RPR002 — no nondeterminism reachable from job cache-key construction.

``repro.engine`` deduplicates and persists results by a SHA-256 over
job inputs.  That is only sound if everything a job spec hashes — and
everything a worker recomputes from the spec — is a pure function of
the spec.  Wall-clock reads, unseeded RNGs, salted ``hash()``, and
set-iteration order all make "the same job" produce different bytes in
different processes, which silently poisons the store.

The rule's scope is the static import closure of ``repro.engine.jobs``
(eager *and* lazy imports).  When that root module is not among the
analyzed files (fixture trees, other projects), the rule falls back to
checking every non-test file.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.imports import tree_nodes
from repro.analysis.registry import Rule, register

#: fully-dotted calls that read ambient state.
BANNED_CALLS: dict[str, str] = {
    "time.time": "wall-clock time; use an explicit timestamp input",
    "time.time_ns": "wall-clock time; use an explicit timestamp input",
    "datetime.now": "wall-clock time; pass the timestamp in",
    "datetime.utcnow": "wall-clock time; pass the timestamp in",
    "datetime.today": "wall-clock time; pass the timestamp in",
    "datetime.datetime.now": "wall-clock time; pass the timestamp in",
    "datetime.datetime.utcnow": "wall-clock time; pass the timestamp in",
    "datetime.datetime.today": "wall-clock time; pass the timestamp in",
    "date.today": "wall-clock date; pass the date in",
    "os.urandom": "OS entropy; derive bytes from the job seed",
    "uuid.uuid1": "host/time-dependent UUID; derive ids from content",
    "uuid.uuid4": "random UUID; derive ids from content hashes",
    "os.getpid": "process identity; results must not depend on the worker",
}

#: module-level functions of the stdlib global (unseeded) RNG.
GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "gauss", "normalvariate", "betavariate",
        "expovariate", "triangular", "seed", "getrandbits",
    }
)

#: numpy legacy global-RNG functions (``np.random.rand`` etc.).
NUMPY_GLOBAL_FUNCS = frozenset(
    {
        "rand", "randn", "randint", "random", "choice", "shuffle",
        "permutation", "seed", "random_sample", "normal", "uniform",
    }
)


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.expr) -> bool:
    """A set display, set comprehension, or bare ``set(...)`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


@register
class DeterminismRule(Rule):
    id = "RPR002"
    name = "determinism"
    severity = Severity.ERROR
    description = (
        "code reachable from repro.engine.jobs cache-key construction must "
        "be deterministic: no wall-clock reads, unseeded RNGs, salted "
        "hash(), or set-iteration-order dependence"
    )

    def applies_to(self, ctx) -> bool:
        return ctx.in_determinism_scope

    def check(self, ctx) -> Iterator[Finding]:
        for node in tree_nodes(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter):
                    yield self.finding(
                        ctx,
                        node.iter.lineno,
                        node.iter.col_offset + 1,
                        "iterating a set: element order varies across "
                        "processes (salted str hashing); sort first",
                    )

    def _check_call(self, ctx, node: ast.Call) -> Iterator[Finding]:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        at = (node.lineno, node.col_offset + 1)
        if dotted in BANNED_CALLS:
            yield self.finding(
                ctx, *at, f"{dotted}(): {BANNED_CALLS[dotted]}"
            )
            return
        parts = dotted.split(".")
        if parts[0] == "random" and len(parts) == 2 and parts[1] in GLOBAL_RANDOM_FUNCS:
            yield self.finding(
                ctx, *at,
                f"{dotted}(): global unseeded RNG; use a seeded "
                "random.Random/numpy Generator derived from the job seed",
            )
            return
        if (
            parts[0] in {"np", "numpy"}
            and len(parts) == 3
            and parts[1] == "random"
            and parts[2] in NUMPY_GLOBAL_FUNCS
        ):
            yield self.finding(
                ctx, *at,
                f"{dotted}(): numpy legacy global RNG; use "
                "np.random.default_rng(seed) with an explicit seed",
            )
            return
        if dotted.endswith("random.default_rng") and not node.args and not node.keywords:
            yield self.finding(
                ctx, *at,
                "default_rng() without a seed is entropy-seeded; pass the "
                "job seed explicitly",
            )
            return
        if dotted == "hash" and node.args:
            yield self.finding(
                ctx, *at,
                "builtin hash() is salted per process (PYTHONHASHSEED); "
                "use hashlib or zlib.crc32 for content-stable hashes",
            )
            return
        # list/tuple over a set: materialises salted iteration order.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in {"list", "tuple"}
            and node.args
            and _is_set_expr(node.args[0])
        ):
            yield self.finding(
                ctx, *at,
                f"{node.func.id}(set(...)) materialises salted set order; "
                "use sorted(...) for a canonical order",
                severity=Severity.WARNING,
            )
