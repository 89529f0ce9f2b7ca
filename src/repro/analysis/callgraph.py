"""Interprocedural call-graph construction over the ``repro`` tree.

The concurrency rule (RPR201) is a reachability problem: a dict
write is only a race if the writing function can *run on a worker
thread*, and that fact lives two or three calls away from the write.
This module supplies the reachability substrate in two stages:

1. :func:`harvest_callgraph` — one file's contribution, extracted from
   its AST as plain JSON-able data (and therefore cacheable by content
   hash, exactly like the unit-signature harvest): every function's
   calls, attribute writes, lock acquisitions (``with`` / ``async
   with`` scopes), async coloring, local variable types, plus the
   file's classes, attribute types, and import aliases.

2. :meth:`CallGraph.build` — the merged, project-wide graph.  Raw call
   expressions are resolved against the harvested definitions:

   - bare names against the module's own functions and import aliases;
   - ``self.method(...)`` against the owner class (and project bases);
   - ``self.attr.method(...)`` via the attr's assigned type
     (``self.batcher = MicroBatcher(...)`` binds
     ``self.batcher.submit`` to ``MicroBatcher.submit``);
   - ``var.method(...)`` via local-variable and parameter annotations;
   - ``self.helper().method(...)`` via the helper's inferred return
     type;
   - ``functools.partial(f, ...)`` and nested ``def`` closures as
     dedicated edge kinds;
   - thread-boundary wrappers — ``loop.run_in_executor``,
     ``threading.Thread(target=...)``, ``pool.submit`` on a
     thread-pool-typed receiver, ``asyncio.create_task`` — as typed
     edges the escape analysis colors from.

Resolution is deliberately best-effort: an unresolved call simply adds
no edge, which under-approximates reachability and therefore
under-reports (never invents) concurrency findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.imports import build_import_map, dotted_name

#: Bump when the harvest payload shape or the resolution semantics
#: change; part of the analyzer's call-graph-pass cache key.
#: v2: no resource, join, escape, await or ``with``-record facts.
CALLGRAPH_VERSION = 2

#: Container constructors that produce known non-thread-safe mutable
#: values (the attribute types the concurrency model resolves).
_CONTAINER_TYPES = {
    "dict": "dict",
    "list": "list",
    "set": "set",
    "OrderedDict": "dict",
    "collections.OrderedDict": "dict",
    "defaultdict": "dict",
    "collections.defaultdict": "dict",
    "deque": "list",
    "collections.deque": "list",
}

#: Lock constructors, by resolved dotted name.
_LOCK_TYPES = {
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "asyncio.Lock": "asynclock",
    "asyncio.Semaphore": "asynclock",
    "threading.Condition": "lock",
    "threading.Semaphore": "lock",
}

#: threading.local — attributes behind it are per-thread by definition.
_THREAD_LOCAL_TYPES = {"threading.local"}

#: Executor constructors, by resolved dotted name.
_POOL_TYPES = {
    "concurrent.futures.ThreadPoolExecutor": "threadpool",
    "ThreadPoolExecutor": "threadpool",
    "concurrent.futures.ProcessPoolExecutor": "processpool",
    "ProcessPoolExecutor": "processpool",
}

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "add", "update", "setdefault", "pop",
        "popitem", "popleft", "clear", "discard", "remove", "extend",
        "insert", "move_to_end", "__setitem__",
    }
)

#: Method names too generic for the unique-name fallback: binding
#: ``pending.add(...)`` to the one project class that happens to define
#: ``add`` invents edges (and with them, false thread coloring).
_FALLBACK_DENY = MUTATOR_METHODS | frozenset(
    {
        "get", "put", "run", "close", "shutdown", "submit", "start",
        "join", "items", "keys", "values", "copy", "read", "write",
        "send", "recv", "acquire", "release", "set", "done", "result",
        "cancel", "wait", "next", "open", "stop", "reset", "flush",
    }
)


def _value_type_expr(node: ast.expr | None) -> str | None:
    """A resolvable "type expression" for an assigned value.

    ``call:<name>`` for constructor calls, ``var:<name>`` for aliases,
    ``attr:<name>`` for ``self.<name>``, literal container kinds
    directly.  Resolved against the project in :meth:`CallGraph.build`.
    """
    if node is None:
        return None
    if isinstance(node, ast.Dict) or isinstance(node, ast.DictComp):
        return "dict"
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
        # The default-fallback idiom: ``platform or Platform(...)``.
        for value in node.values:
            vtype = _value_type_expr(value)
            if vtype is not None:
                return vtype
        return None
    if isinstance(node, ast.IfExp):
        return _value_type_expr(node.body) or _value_type_expr(node.orelse)
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return f"call:{name}" if name else None
    if isinstance(node, ast.Name):
        return f"var:{node.id}"
    if isinstance(node, ast.Attribute):
        dotted = dotted_name(node)
        if dotted and dotted.startswith("self.") and dotted.count(".") == 1:
            return f"attr:{dotted.split('.', 1)[1]}"
    return None


def _annotation_type(node: ast.expr | None) -> str | None:
    """``ann:<dotted>`` for a plain annotation, unwrapping Optional."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # ``T | None`` — take the non-None side.
        for side in (node.left, node.right):
            if not (isinstance(side, ast.Constant) and side.value is None):
                return _annotation_type(side)
    if isinstance(node, ast.Subscript):
        return _annotation_type(node.value)
    dotted = dotted_name(node)
    return f"ann:{dotted}" if dotted else None


class _FunctionHarvester:
    """Walks one function body, tracking the active lock scopes."""

    def __init__(self, qualname: str, node: ast.FunctionDef | ast.AsyncFunctionDef,
                 module_globals: set[str]) -> None:
        self.qualname = qualname
        self.node = node
        self.module_globals = module_globals
        self.is_async = isinstance(node, ast.AsyncFunctionDef)
        self.calls: list[dict] = []
        self.writes: list[dict] = []
        self.nested: list[str] = []
        self.vartypes: dict[str, str] = {}
        self.returns: list[str] = []
        self.global_decls: set[str] = set()
        self.self_reads: set[str] = set()
        self.decorators: list[str] = []
        for dec in node.decorator_list:
            dotted = dotted_name(dec.func if isinstance(dec, ast.Call) else dec)
            if dotted is not None:
                self.decorators.append(dotted)
        for arg in [*node.args.posonlyargs, *node.args.args,
                    *node.args.kwonlyargs]:
            ann = _annotation_type(arg.annotation)
            if ann is not None:
                self.vartypes.setdefault(arg.arg, ann)

    # ---- helpers -------------------------------------------------------

    def _record_call(self, call: ast.Call, locks: list[str]) -> None:
        func = call.func
        name = dotted_name(func)
        recv_call = None
        attr = None
        if name is None and isinstance(func, ast.Attribute):
            attr = func.attr
            if isinstance(func.value, ast.Call):
                recv_call = dotted_name(func.value.func)
        rec: dict = {
            "name": name,
            "line": call.lineno,
            "col": call.col_offset + 1,
            "locks": list(locks),
        }
        if recv_call is not None:
            rec["recv_call"] = recv_call
            rec["attr"] = attr
        target, tkind, recv = self._wrapper_target(call, name)
        if target is not None:
            rec["target"] = target
            rec["tkind"] = tkind
            if recv is not None:
                rec["recv"] = recv
        self.calls.append(rec)

    def _wrapper_target(
        self, call: ast.Call, name: str | None
    ) -> tuple[str | None, str | None, str | None]:
        """(target expr, edge kind, receiver expr) for boundary wrappers."""
        if name is None:
            return None, None, None

        def arg_expr(node: ast.expr) -> str | None:
            if isinstance(node, ast.Call):
                return dotted_name(node.func)
            return dotted_name(node)

        last = name.rsplit(".", 1)[-1]
        if last == "run_in_executor" and len(call.args) >= 2:
            return arg_expr(call.args[1]), "executor", None
        if name in ("Thread", "threading.Thread"):
            for kw in call.keywords:
                if kw.arg == "target":
                    return arg_expr(kw.value), "thread", None
            return None, None, None
        if last == "submit" and "." in name and call.args:
            recv = name.rsplit(".", 1)[0]
            return arg_expr(call.args[0]), "submit", recv
        if last in ("create_task", "ensure_future") and call.args:
            return arg_expr(call.args[0]), "task", None
        if name in ("partial", "functools.partial") and call.args:
            return arg_expr(call.args[0]), "partial", None
        if last in ("call_soon", "call_later", "call_soon_threadsafe"):
            idx = 1 if last == "call_later" else 0
            if len(call.args) > idx:
                return arg_expr(call.args[idx]), "callback", None
        if last == "add_done_callback" and call.args:
            return arg_expr(call.args[0]), "callback", None
        return None, None, None

    def _record_write(self, target: ast.expr, op: str, locks: list[str],
                      value: ast.expr | None, line: int, col: int) -> None:
        """Record a write to ``self.<attr>[...]`` or a module global."""
        vtype = _value_type_expr(value)
        if isinstance(target, ast.Subscript):
            base = dotted_name(target.value)
            if base is None:
                return
            self._record_dotted_write(base, "item", locks, vtype, line, col)
            return
        dotted = dotted_name(target)
        if dotted is None:
            return
        if isinstance(target, ast.Name):
            if op == "assign" and vtype is not None:
                self.vartypes[dotted] = vtype
            if dotted in self.global_decls or (
                op != "assign" and dotted in self.module_globals
            ):
                self.writes.append({
                    "target": f"global:{dotted}", "attr": dotted, "sub": None,
                    "op": op, "locks": list(locks), "type": vtype,
                    "line": line, "col": col,
                })
            return
        self._record_dotted_write(dotted, op, locks, vtype, line, col)

    def _record_dotted_write(self, dotted: str, op: str, locks: list[str],
                             vtype: str | None, line: int, col: int) -> None:
        parts = dotted.split(".")
        if parts[0] == "self" and len(parts) >= 2:
            self.writes.append({
                "target": dotted,
                "attr": parts[1],
                "sub": parts[2] if len(parts) > 2 else None,
                "op": op, "locks": list(locks), "type": vtype,
                "line": line, "col": col,
            })
        elif parts[0] in self.module_globals:
            self.writes.append({
                "target": f"global:{dotted}", "attr": parts[0], "sub": None,
                "op": op, "locks": list(locks), "type": vtype,
                "line": line, "col": col,
            })

    # ---- the walk ------------------------------------------------------

    def harvest(self) -> dict:
        for stmt in self.node.body:
            self._walk_stmt(stmt, [])
        # Whole-body sweep for self-attribute *reads* (property edges);
        # nested defs share ``self``, so charging their reads to the
        # outer function only widens reachability.
        for sub in ast.walk(self.node):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
                and isinstance(sub.ctx, ast.Load)
            ):
                self.self_reads.add(sub.attr)
        return {
            "async": self.is_async,
            "line": self.node.lineno,
            "calls": self.calls,
            "writes": self.writes,
            "nested": self.nested,
            "vartypes": self.vartypes,
            "returns": self.returns,
            "self_reads": sorted(self.self_reads),
            "decorators": self.decorators,
        }

    def _walk_stmt(self, stmt: ast.stmt, locks: list[str]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested.append(stmt.name)
            return  # harvested as its own function by the caller
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._walk_with(stmt, locks)
            return
        self._scan_exprs(stmt, locks)
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._record_write(target, "assign", locks, stmt.value,
                                   stmt.lineno, stmt.col_offset + 1)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._record_write(stmt.target, "assign", locks, stmt.value,
                               stmt.lineno, stmt.col_offset + 1)
            if isinstance(stmt.target, ast.Name):
                ann = _annotation_type(stmt.annotation)
                if ann is not None:
                    self.vartypes.setdefault(stmt.target.id, ann)
        elif isinstance(stmt, ast.AugAssign):
            self._record_write(stmt.target, "aug", locks, None,
                               stmt.lineno, stmt.col_offset + 1)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    self._record_write(target, "item", locks, None,
                                       stmt.lineno, stmt.col_offset + 1)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            rtype = _value_type_expr(stmt.value)
            if rtype is not None:
                self.returns.append(rtype)
        elif isinstance(stmt, ast.Global):
            self.global_decls.update(stmt.names)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._walk_stmt(child, locks)
            elif isinstance(child, (ast.ExceptHandler, ast.match_case)):
                for sub in child.body:
                    self._walk_stmt(sub, locks)

    def _walk_with(self, stmt: ast.With | ast.AsyncWith,
                   locks: list[str]) -> None:
        held = list(locks)
        for item in stmt.items:
            ctx = item.context_expr
            if isinstance(ctx, ast.Call):
                self._scan_call_tree(ctx, locks)
                expr = dotted_name(ctx.func)
            else:
                expr = dotted_name(ctx)
            if expr is not None:
                held.append(expr)
        for sub in stmt.body:
            self._walk_stmt(sub, held)

    def _scan_exprs(self, stmt: ast.stmt, locks: list[str]) -> None:
        """Record the calls in the statement's own expressions."""
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_call_tree(child, locks)

    def _scan_call_tree(self, expr: ast.expr, locks: list[str]) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._record_call(node, locks)


def harvest_callgraph(tree: ast.Module, module: str | None) -> dict:
    """One file's call-graph facts, JSON-ready (see module docstring)."""
    functions: dict[str, dict] = {}
    classes: dict[str, dict] = {}
    module_globals: set[str] = set()
    global_types: dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    module_globals.add(target.id)
                    vtype = _value_type_expr(stmt.value)
                    if vtype is not None:
                        global_types.setdefault(target.id, vtype)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            module_globals.add(stmt.target.id)
            vtype = _annotation_type(stmt.annotation) or _value_type_expr(
                stmt.value
            )
            if vtype is not None:
                global_types.setdefault(stmt.target.id, vtype)

    def harvest_function(node, qualname: str) -> None:
        harvester = _FunctionHarvester(qualname, node, module_globals)
        functions[qualname] = harvester.harvest()
        for sub in ast.walk(node):
            if sub is node:
                continue
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                harvest_function(sub, f"{qualname}.{sub.name}")

    def harvest_class(node: ast.ClassDef, prefix: str) -> None:
        fields: dict[str, str] = {}
        for sub in node.body:
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                ann = _annotation_type(sub.annotation)
                if ann is None and sub.value is not None:
                    ann = _value_type_expr(sub.value)
                if ann is not None:
                    fields[sub.target.id] = ann
            elif isinstance(sub, ast.Assign) and len(sub.targets) == 1 and \
                    isinstance(sub.targets[0], ast.Name):
                vtype = _value_type_expr(sub.value)
                if vtype is not None:
                    fields.setdefault(sub.targets[0].id, vtype)
        classes[f"{prefix}{node.name}"] = {
            "line": node.lineno,
            "bases": [b for b in (dotted_name(base) for base in node.bases)
                      if b is not None],
            "fields": fields,
        }
        for sub in node.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                harvest_function(sub, f"{prefix}{node.name}.{sub.name}")
            elif isinstance(sub, ast.ClassDef):
                harvest_class(sub, f"{prefix}{node.name}.")

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            harvest_function(stmt, stmt.name)
        elif isinstance(stmt, ast.ClassDef):
            harvest_class(stmt, "")

    return {
        "functions": functions,
        "classes": classes,
        "imports": build_import_map(tree, module),
        "globals": sorted(module_globals),
        "global_types": global_types,
    }


# ---------------------------------------------------------------------------
# The merged graph.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    """One resolved call edge.

    Attributes:
        caller / callee: fully dotted function qualnames.
        line: call-site line in the caller's file.
        kind: ``call`` (plain), ``task`` (``create_task``), ``thread``
            (``Thread(target=...)``), ``executor``
            (``run_in_executor`` / thread-pool ``submit``), ``partial``,
            ``closure``, or ``callback`` (``call_soon`` family).
    """

    caller: str
    callee: str
    line: int
    kind: str


@dataclass
class FunctionNode:
    """One project function in the merged graph."""

    qualname: str
    module: str
    rel_path: str
    is_async: bool
    line: int
    owner_class: str | None
    raw: dict = field(repr=False, default_factory=dict)


class CallGraph:
    """The merged project call graph (see module docstring)."""

    def __init__(self) -> None:
        self.nodes: dict[str, FunctionNode] = {}
        self.classes: dict[str, dict] = {}
        self.edges: list[Edge] = []
        self.out: dict[str, list[Edge]] = {}
        self.into: dict[str, list[Edge]] = {}
        self._imports: dict[str, dict[str, str]] = {}
        self._unique_methods: dict[str, str] = {}
        #: module -> {global name -> harvested type expression}.
        self.global_types: dict[str, dict[str, str]] = {}

    # ---- construction --------------------------------------------------

    @classmethod
    def build(cls, harvests: dict[str, tuple[str | None, dict]]) -> "CallGraph":
        """Merge per-file harvests into one resolved graph.

        Args:
            harvests: ``rel_path -> (module, harvest payload)``.
        """
        graph = cls()
        for rel, (module, payload) in harvests.items():
            if module is None:
                continue
            graph._imports[module] = payload.get("imports", {})
            graph.global_types[module] = payload.get("global_types", {})
            for cname, cinfo in payload.get("classes", {}).items():
                graph.classes[f"{module}.{cname}"] = dict(cinfo)
            for qual, finfo in payload.get("functions", {}).items():
                owner = None
                parts = qual.split(".")
                if len(parts) >= 2:
                    candidate = f"{module}." + ".".join(parts[:-1])
                    if candidate in graph.classes or \
                            f"{module}.{parts[0]}" in graph.classes:
                        owner = f"{module}." + ".".join(parts[:-1])
                graph.nodes[f"{module}.{qual}"] = FunctionNode(
                    qualname=f"{module}.{qual}",
                    module=module,
                    rel_path=rel,
                    is_async=bool(finfo.get("async")),
                    line=finfo.get("line", 1),
                    owner_class=owner,
                    raw=finfo,
                )
        by_name: dict[str, list[str]] = {}
        for qual in graph.nodes:
            by_name.setdefault(qual.rsplit(".", 1)[-1], []).append(qual)
        graph._unique_methods = {
            name: quals[0] for name, quals in by_name.items()
            if len(quals) == 1
        }
        graph._resolve_class_attrs()
        graph._resolve_edges()
        return graph

    # ---- type resolution ----------------------------------------------

    def resolve_symbol(self, module: str, name: str) -> str:
        """A dotted name as written -> a project-or-external qualname."""
        parts = name.split(".")
        aliases = self._imports.get(module, {})
        head = parts[0]
        if head in aliases:
            parts = aliases[head].split(".") + parts[1:]
            return ".".join(parts)
        if f"{module}.{name}" in self.nodes or f"{module}.{name}" in self.classes:
            return f"{module}.{name}"
        if f"{module}.{head}" in self.classes:
            return f"{module}." + name
        return name

    def _resolve_type(self, module: str, owner: str | None,
                      texpr: str | None, depth: int = 0) -> str | None:
        """A harvested type expression -> class qualname or builtin kind."""
        if texpr is None or depth > 4:
            return None
        if texpr in ("dict", "list", "set"):
            return texpr
        scheme, _, rest = texpr.partition(":")
        if scheme == "call" or scheme == "ann":
            resolved = self.resolve_symbol(module, rest)
            if resolved in self.classes:
                return resolved
            if resolved in _CONTAINER_TYPES:
                return _CONTAINER_TYPES[resolved]
            if resolved in _LOCK_TYPES:
                return _LOCK_TYPES[resolved]
            if resolved in _THREAD_LOCAL_TYPES:
                return "local"
            if resolved in _POOL_TYPES:
                return _POOL_TYPES[resolved]
            tail = resolved.rsplit(".", 1)[-1]
            if tail in _CONTAINER_TYPES:
                return _CONTAINER_TYPES[tail]
            return None
        if scheme == "attr" and owner is not None:
            return self.attr_type(owner, rest)
        return None

    def _resolve_class_attrs(self) -> None:
        """Attach resolved attribute types to every class record.

        An attribute's type comes from class-body annotations plus every
        ``self.<attr> = ...`` assignment in the class's methods; multiple
        distinct class types collapse to the first seen (stable because
        harvests iterate in sorted-file order).
        """
        for cqual, cinfo in self.classes.items():
            module = cqual.rsplit(".", 1)[0]
            while module not in self._imports and "." in module:
                module = module.rsplit(".", 1)[0]
            attrs: dict[str, str] = {}
            for fname, texpr in cinfo.get("fields", {}).items():
                resolved = self._resolve_type(module, None, texpr)
                if resolved is not None:
                    attrs[fname] = resolved
            cinfo["attr_types"] = attrs
        # Second pass: method-body assignments (may reference other
        # classes resolved above).
        for qual, node in self.nodes.items():
            owner = node.owner_class
            if owner is None or owner not in self.classes:
                continue
            attrs = self.classes[owner]["attr_types"]
            for write in node.raw.get("writes", []):
                if write["op"] != "assign" or write.get("sub") is not None:
                    continue
                if not write["target"].startswith("self."):
                    continue
                resolved = self._resolve_var_type(node, write.get("type"))
                if resolved is not None:
                    attrs.setdefault(write["attr"], resolved)

    def _resolve_var_type(self, node: FunctionNode,
                          texpr: str | None, depth: int = 0) -> str | None:
        """Resolve a type expression in a function's local scope."""
        if texpr is None or depth > 4:
            return None
        scheme, _, rest = texpr.partition(":")
        if scheme == "var":
            local = node.raw.get("vartypes", {}).get(rest)
            if local == texpr:
                return None
            return self._resolve_var_type(node, local, depth + 1)
        if scheme == "call":
            # A constructor call types the var as its class; any other
            # project call yields that function's return type.
            resolved = self.resolve_symbol(node.module, rest)
            if resolved in self.classes:
                return resolved
            target = self._resolve_callable(node, rest, depth + 1)
            if target is not None and target in self.nodes and \
                    not target.endswith(".__init__"):
                rtype = self.return_type(target, depth + 1)
                if rtype is not None:
                    return rtype
        return self._resolve_type(node.module, node.owner_class, texpr, depth)

    def attr_type(self, class_qual: str, attr: str) -> str | None:
        """Resolved type of ``class_qual.attr``, following project bases."""
        seen: set[str] = set()
        queue = [class_qual]
        while queue:
            cqual = queue.pop(0)
            if cqual in seen or cqual not in self.classes:
                continue
            seen.add(cqual)
            hit = self.classes[cqual].get("attr_types", {}).get(attr)
            if hit is not None:
                return hit
            module = cqual.rsplit(".", 1)[0]
            for base in self.classes[cqual].get("bases", []):
                queue.append(self.resolve_symbol(module, base))
        return None

    def return_type(self, qual: str, depth: int = 0) -> str | None:
        """Inferred return type (class qualname / builtin kind) of ``qual``."""
        node = self.nodes.get(qual)
        if node is None or depth > 3:
            return None
        for texpr in node.raw.get("returns", []):
            resolved = self._resolve_var_type(node, texpr, depth + 1)
            if resolved is not None:
                return resolved
        return None

    # ---- call resolution ----------------------------------------------

    def _resolve_callable(self, node: FunctionNode,
                          name: str, depth: int = 0) -> str | None:
        """Resolve one call expression from inside ``node``."""
        if depth > 4:
            return None
        parts = name.split(".")
        module = node.module
        if parts[0] == "self":
            owner = node.owner_class
            if owner is None:
                return None
            if len(parts) == 2:
                resolved = self._method_on(owner, parts[1])
                if resolved is not None:
                    return resolved
                # ``self.attr(...)`` — a callable attribute: bind to the
                # attr type's __call__ if it is a project class.
                atype = self.attr_type(owner, parts[1])
                if atype is not None and f"{atype}.__call__" in self.nodes:
                    return f"{atype}.__call__"
                return None
            atype = self.attr_type(owner, parts[1])
            if atype is not None and atype in self.classes and len(parts) >= 3:
                return self._method_on(atype, parts[2])
            return None
        if len(parts) == 1:
            resolved = self.resolve_symbol(module, name)
            if resolved in self.nodes:
                return resolved
            if resolved in self.classes:
                init = f"{resolved}.__init__"
                return init if init in self.nodes else None
            return None
        # ``var.method(...)`` / ``mod.func(...)`` / ``Class.method(...)``.
        resolved = self.resolve_symbol(module, name)
        if resolved in self.nodes:
            return resolved
        vtype = self._resolve_var_type(node, f"var:{parts[0]}", depth + 1)
        if vtype is not None and vtype in self.classes:
            return self._method_on(vtype, parts[1])
        if (
            len(parts) == 2
            and parts[1] not in _FALLBACK_DENY
            and parts[1] in self._unique_methods
        ):
            # Unique-name fallback: bind only when the (non-generic)
            # method name resolves to exactly one project function.
            return self._unique_methods[parts[1]]
        return None

    def _method_on(self, class_qual: str, method: str) -> str | None:
        """``class_qual.method`` following project bases."""
        seen: set[str] = set()
        queue = [class_qual]
        while queue:
            cqual = queue.pop(0)
            if cqual in seen:
                continue
            seen.add(cqual)
            if f"{cqual}.{method}" in self.nodes:
                return f"{cqual}.{method}"
            if cqual in self.classes:
                module = cqual.rsplit(".", 1)[0]
                for base in self.classes[cqual].get("bases", []):
                    queue.append(self.resolve_symbol(module, base))
        return None

    def is_property(self, qual: str) -> bool:
        """Whether ``qual`` is a ``@property``/``cached_property`` (or
        setter) — invoked by attribute access, invisible to call syntax."""
        node = self.nodes.get(qual)
        if node is None:
            return False
        for dec in node.raw.get("decorators", []):
            if dec in ("property", "cached_property",
                       "functools.cached_property"):
                return True
            if dec.endswith(".setter") or dec.endswith(".deleter"):
                return True
        return False

    def _resolve_edges(self) -> None:
        for qual, node in self.nodes.items():
            for rec in node.raw.get("calls", []):
                self._resolve_call_rec(qual, node, rec)
            for nested in node.raw.get("nested", []):
                nested_qual = f"{qual}.{nested}"
                if nested_qual in self.nodes:
                    self._add_edge(Edge(qual, nested_qual,
                                        self.nodes[nested_qual].line,
                                        "closure"))
            # ``self.kernel`` reading a @property runs the property
            # body; surface that as a call edge so coloring crosses it.
            owner = node.owner_class
            if owner is not None:
                for attr in node.raw.get("self_reads", []):
                    target = self._method_on(owner, attr)
                    if target is not None and target != qual and \
                            self.is_property(target):
                        self._add_edge(Edge(qual, target, node.line, "call"))
        for edge in list(self.edges):
            self.out.setdefault(edge.caller, []).append(edge)
            self.into.setdefault(edge.callee, []).append(edge)

    def _resolve_call_rec(self, qual: str, node: FunctionNode,
                          rec: dict) -> None:
        name = rec.get("name")
        target = None
        if name is not None:
            target = self._resolve_callable(node, name)
        elif rec.get("recv_call") is not None:
            # ``self.helper().method(...)`` — via the helper's return type.
            helper = self._resolve_callable(node, rec["recv_call"])
            if helper is not None:
                rtype = self.return_type(helper)
                if rtype is not None and rtype in self.classes:
                    target = self._method_on(rtype, rec["attr"])
        if target is not None:
            self.edges.append(Edge(qual, target, rec["line"], "call"))
        wrapped = rec.get("target")
        if wrapped is not None:
            kind = rec["tkind"]
            if kind == "submit":
                kind = self._submit_kind(node, rec)
                if kind is None:
                    return
            resolved = self._resolve_callable(node, wrapped)
            if resolved is not None:
                self.edges.append(Edge(qual, resolved, rec["line"], kind))

    def _submit_kind(self, node: FunctionNode, rec: dict) -> str | None:
        """``executor`` for thread-pool submit receivers, else ``None``.

        A ``.submit`` on a process pool crosses a *process* boundary —
        no shared memory, so the concurrency rules must not color its
        target as thread-reachable.  Unknown receivers are skipped too:
        under-approximate, never invent.
        """
        recv = rec.get("recv")
        if recv is None:
            return None
        rtype = self._resolve_var_type(node, f"var:{recv.split('.')[0]}")
        if recv.startswith("self.") and node.owner_class is not None:
            rtype = self.attr_type(node.owner_class, recv.split(".")[1])
        if rtype == "threadpool":
            return "executor"
        return None

    def _add_edge(self, edge: Edge) -> None:
        self.edges.append(edge)

    # ---- queries -------------------------------------------------------

    def async_functions(self) -> set[str]:
        """Every ``async def`` in the project (the loop-color seeds)."""
        return {q for q, n in self.nodes.items() if n.is_async}

    def boundary_edges(self, kinds: tuple[str, ...] = ("thread", "executor")
                       ) -> list[Edge]:
        """Edges that move their callee onto another thread."""
        return [e for e in self.edges if e.kind in kinds]

    def reachable_from(self, seeds: set[str],
                       kinds: tuple[str, ...] = ("call", "closure", "partial",
                                                 "task", "callback"),
                       ) -> set[str]:
        """Transitive closure over edges of the given kinds."""
        seen: set[str] = set()
        frontier = [s for s in seeds if s in self.nodes]
        while frontier:
            qual = frontier.pop()
            if qual in seen:
                continue
            seen.add(qual)
            for edge in self.out.get(qual, ()):
                if edge.kind in kinds and edge.callee not in seen:
                    frontier.append(edge.callee)
        return seen

    def chain_to(self, target: str, seeds: set[str],
                 kinds: tuple[str, ...] = ("call", "closure", "partial"),
                 ) -> list[str]:
        """Shortest seed -> ... -> target path, for finding messages."""
        parents: dict[str, str | None] = {s: None for s in seeds
                                          if s in self.nodes}
        frontier = list(parents)
        while frontier:
            nxt: list[str] = []
            for qual in frontier:
                if qual == target:
                    chain = [qual]
                    while parents[chain[-1]] is not None:
                        chain.append(parents[chain[-1]])
                    return list(reversed(chain))
                for edge in self.out.get(qual, ()):
                    if edge.kind in kinds and edge.callee not in parents:
                        parents[edge.callee] = qual
                        nxt.append(edge.callee)
            frontier = nxt
        return [target] if target in self.nodes else []
