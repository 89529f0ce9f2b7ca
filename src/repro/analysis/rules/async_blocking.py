"""RPR008 — no blocking calls inside ``async def`` bodies in the service.

The decision service runs one asyncio event loop for every connection:
a single blocking call inside a coroutine stalls *all* in-flight
requests — micro-batch deadlines slip, keep-alive peers time out, and
the p99 latency the serve benchmark enforces collapses.  The service's
own design rule is therefore mechanical: in ``repro.serve``, coroutines
may only compute and await; anything that can touch a clock, the disk,
or another process belongs on the worker pool
(``loop.run_in_executor``) or behind an ``asyncio`` equivalent.

Flagged inside ``async def`` bodies (nested synchronous ``def``\\ s are
exempt — they execute wherever they are *called*, typically on the
pool):

- ``time.sleep(...)`` — use ``asyncio.sleep``;
- synchronous file I/O: the ``open(...)`` builtin and the
  ``read_text`` / ``write_text`` / ``read_bytes`` / ``write_bytes``
  path methods;
- ``subprocess.run`` / ``call`` / ``check_call`` / ``check_output`` /
  ``Popen`` — use ``asyncio.create_subprocess_exec``;
- synchronous result-store access: ``get`` / ``put`` / ``invalidate`` /
  ``absolve`` on a ``store`` receiver, and the two-tier decision
  cache's ``get`` / ``put`` on a ``cache`` receiver (its store tier
  reads the disk; the event-loop-safe probe is ``get_memory``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.imports import tree_nodes
from repro.analysis.registry import Rule, register
from repro.analysis.rules.determinism import dotted_name

#: Module scope the rule polices.
_SCOPE_PREFIX = "repro.serve"

#: Fully-dotted callables that block the loop, with the async fix.
_BLOCKING_DOTTED = {
    "time.sleep": "asyncio.sleep",
    "subprocess.run": "asyncio.create_subprocess_exec",
    "subprocess.call": "asyncio.create_subprocess_exec",
    "subprocess.check_call": "asyncio.create_subprocess_exec",
    "subprocess.check_output": "asyncio.create_subprocess_exec",
    "subprocess.Popen": "asyncio.create_subprocess_exec",
}

#: Method names that are synchronous file I/O on any receiver.
_FILE_IO_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: Store-backed methods that read/write the disk, per receiver tail.
_STORE_METHODS = frozenset({"get", "put", "invalidate", "absolve"})
_STORE_RECEIVERS = frozenset({"store", "cache"})


def _receiver_tail(func: ast.Attribute) -> str | None:
    """Last component of the receiver expression (``self.cache.get`` ->
    ``cache``), if it is a plain name/attribute chain."""
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def _blocking_reason(call: ast.Call) -> str | None:
    """Why this call blocks the event loop, or ``None`` if it doesn't."""
    func = call.func
    dotted = dotted_name(func)
    if dotted in _BLOCKING_DOTTED:
        return f"{dotted}() blocks the event loop; use {_BLOCKING_DOTTED[dotted]}"
    if isinstance(func, ast.Name) and func.id == "open":
        return (
            "open() is synchronous file I/O; move it to the worker pool "
            "(loop.run_in_executor)"
        )
    if isinstance(func, ast.Attribute):
        if func.attr in _FILE_IO_METHODS:
            return (
                f".{func.attr}() is synchronous file I/O; move it to the "
                "worker pool (loop.run_in_executor)"
            )
        receiver = _receiver_tail(func)
        if receiver in _STORE_RECEIVERS and func.attr in _STORE_METHODS:
            return (
                f"{receiver}.{func.attr}() reaches the on-disk store tier; "
                "call it from the worker pool (the event-loop-safe probe "
                "is cache.get_memory)"
            )
    return None


@register
class AsyncBlockingRule(Rule):
    id = "RPR008"
    name = "async-blocking"
    severity = Severity.ERROR
    description = (
        "async def bodies under repro.serve must not call time.sleep, "
        "synchronous file I/O, subprocess, or synchronous store reads"
    )
    rationale = (
        "The decision service multiplexes every connection onto one "
        "asyncio event loop.  A blocking call inside any coroutine — a "
        "sleep, an open(), a subprocess wait, a store read that touches "
        "the disk — freezes all in-flight requests at once: micro-batch "
        "deadlines slip, keep-alive peers stall, and tail latency "
        "collapses.  Blocking work belongs on the worker pool "
        "(loop.run_in_executor) or behind the asyncio equivalent "
        "(asyncio.sleep, asyncio.create_subprocess_exec).  Synchronous "
        "helpers defined inside a coroutine are exempt: they run where "
        "they are called, which is the pool."
    )
    example = (
        "async def decide(self, request):\n"
        "    payload = self.store.get(key)   # RPR008: disk read on the loop\n"
        "    time.sleep(0.005)               # RPR008: use asyncio.sleep\n"
    )

    def applies_to(self, ctx) -> bool:
        return (
            not ctx.is_test
            and ctx.module is not None
            and (
                ctx.module == _SCOPE_PREFIX
                or ctx.module.startswith(_SCOPE_PREFIX + ".")
            )
        )

    def check(self, ctx) -> Iterator[Finding]:
        for node in tree_nodes(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_coroutine(ctx, node)

    def _check_coroutine(
        self, ctx, coro: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        """Findings for one coroutine body, skipping nested sync defs.

        Nested ``async def``\\ s are also skipped here — the outer
        :meth:`check` walk visits them as coroutines in their own right.
        """
        stack: list[ast.AST] = list(coro.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Call):
                reason = _blocking_reason(node)
                if reason is not None:
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset + 1,
                        f"in 'async def {coro.name}': {reason}",
                    )
            stack.extend(ast.iter_child_nodes(node))
