"""Call-graph construction: resolution, coloring, boundary edges.

Each test builds a :class:`~repro.analysis.callgraph.CallGraph` straight
from source text via :func:`harvest_callgraph` — the same two-stage path
(per-file harvest, then merged resolution) that both analysis drivers
use — and asserts on the resolved edges and derived colorings.
"""

import ast
import textwrap

from repro.analysis.callgraph import CallGraph, harvest_callgraph
from repro.analysis.concurrency import ConcurrencyModel


def build(sources: dict[str, str]) -> CallGraph:
    """``{module: source}`` -> merged graph, mirroring the drivers."""
    harvests = {}
    for module, text in sources.items():
        rel = module.replace(".", "/") + ".py"
        tree = ast.parse(textwrap.dedent(text))
        harvests[rel] = (module, harvest_callgraph(tree, module))
    return CallGraph.build(harvests)


def edge_kinds(graph: CallGraph) -> set[tuple[str, str, str]]:
    return {(e.caller, e.callee, e.kind) for e in graph.edges}


class TestResolution:
    def test_cross_module_import_resolves(self):
        graph = build({
            "pkg.alpha": """
                from pkg.beta import helper

                def entry():
                    helper()
            """,
            "pkg.beta": """
                def helper():
                    pass
            """,
        })
        assert ("pkg.alpha.entry", "pkg.beta.helper", "call") in \
            edge_kinds(graph)

    def test_method_binds_through_assigned_attribute_type(self):
        graph = build({
            "pkg.svc": """
                class Store:
                    def put(self, key, value):
                        pass

                class Service:
                    def __init__(self):
                        self.store = Store()

                    def work(self):
                        self.store.put("k", 1)
            """,
        })
        assert ("pkg.svc.Service.work", "pkg.svc.Store.put", "call") in \
            edge_kinds(graph)

    def test_constructor_call_types_the_local_variable(self):
        graph = build({
            "pkg.svc": """
                class Store:
                    def put(self, key, value):
                        pass

                def run():
                    store = Store()
                    store.put("k", 1)
            """,
        })
        assert ("pkg.svc.run", "pkg.svc.Store.put", "call") in \
            edge_kinds(graph)

    def test_property_read_becomes_a_call_edge(self):
        graph = build({
            "pkg.svc": """
                class Service:
                    @property
                    def size(self):
                        return 0

                    def peek(self):
                        return self.size
            """,
        })
        assert ("pkg.svc.Service.peek", "pkg.svc.Service.size", "call") in \
            edge_kinds(graph)

    def test_generic_method_names_do_not_fall_back(self):
        # `.add()` on an untyped receiver must NOT bind to the one
        # project method named `add` — generic mutator names are too
        # common for the unique-name fallback to be safe.
        graph = build({
            "pkg.svc": """
                class Registry:
                    def add(self, item):
                        pass

                def run(untyped):
                    untyped.add(1)
            """,
        })
        assert ("pkg.svc.run", "pkg.svc.Registry.add", "call") not in \
            edge_kinds(graph)


class TestEdgeKinds:
    def test_closure_partial_thread_and_task_edges(self):
        graph = build({
            "pkg.alpha": """
                import asyncio
                import functools
                import threading

                def target():
                    pass

                async def entry():
                    def inner():
                        target()
                    fn = functools.partial(target, 1)
                    t = threading.Thread(target=target)
                    t.start()
                    asyncio.create_task(work())

                async def work():
                    pass
            """,
        })
        kinds = edge_kinds(graph)
        assert ("pkg.alpha.entry", "pkg.alpha.entry.inner", "closure") in kinds
        assert ("pkg.alpha.entry.inner", "pkg.alpha.target", "call") in kinds
        assert ("pkg.alpha.entry", "pkg.alpha.target", "partial") in kinds
        assert ("pkg.alpha.entry", "pkg.alpha.target", "thread") in kinds
        # create_task is no boundary: its coroutine call is a plain edge.
        assert ("pkg.alpha.entry", "pkg.alpha.work", "call") in kinds
        assert not any(kind == "task" for _, _, kind in kinds)

    def test_threadpool_submit_is_an_executor_boundary(self):
        graph = build({
            "pkg.svc": """
                from concurrent.futures import ThreadPoolExecutor

                class Service:
                    def __init__(self):
                        self.pool = ThreadPoolExecutor(2)

                    def work(self):
                        pass

                    def dispatch(self):
                        self.pool.submit(self.work)
            """,
        })
        assert ("pkg.svc.Service.dispatch", "pkg.svc.Service.work",
                "executor") in edge_kinds(graph)
        assert [e.callee for e in graph.boundary_edges()] == \
            ["pkg.svc.Service.work"]

    def test_processpool_submit_is_not_a_shared_memory_boundary(self):
        graph = build({
            "pkg.svc": """
                from concurrent.futures import ProcessPoolExecutor

                class Service:
                    def __init__(self):
                        self.pool = ProcessPoolExecutor(2)

                    def work(self):
                        pass

                    def dispatch(self):
                        self.pool.submit(self.work)
            """,
        })
        assert graph.boundary_edges() == []


class TestColoring:
    def graph(self):
        return build({
            "pkg.alpha": """
                import threading

                def sync_leaf():
                    pass

                async def loop_entry():
                    shared_leaf()

                def shared_leaf():
                    pass

                def spawn():
                    threading.Thread(target=thread_entry).start()

                def thread_entry():
                    sync_leaf()
            """,
        })

    def test_thread_color_closes_over_boundary_callees(self):
        model = ConcurrencyModel.build(self.graph())
        assert model.thread_entries == {"pkg.alpha.thread_entry"}
        assert "pkg.alpha.sync_leaf" in model.thread_colored
        assert "pkg.alpha.shared_leaf" not in model.thread_colored

    def test_chain_to_reports_the_shortest_path(self):
        graph = self.graph()
        chain = graph.chain_to(
            "pkg.alpha.sync_leaf", {"pkg.alpha.thread_entry"}
        )
        assert chain == ["pkg.alpha.thread_entry", "pkg.alpha.sync_leaf"]


class TestHarvestPayload:
    def test_harvest_is_json_roundtrippable(self):
        import json

        tree = ast.parse(textwrap.dedent("""
            import threading

            class Box:
                def __init__(self):
                    self.lock = threading.Lock()
                    self.items = []

                def add(self, item):
                    with self.lock:
                        self.items.append(item)
        """))
        payload = harvest_callgraph(tree, "pkg.box")
        assert json.loads(json.dumps(payload)) == payload
        init = payload["functions"]["Box.__init__"]
        writes = {w["attr"]: w.get("type") for w in init["writes"]}
        assert writes["lock"] == "call:threading.Lock"

    def test_lock_attribute_type_resolves_at_build_time(self):
        graph = build({
            "pkg.box": """
                import threading

                class Box:
                    def __init__(self):
                        self.lock = threading.Lock()
            """,
        })
        assert graph.attr_type("pkg.box.Box", "lock") == "lock"

    def test_lock_scope_is_recorded_on_the_write(self):
        graph = build({
            "pkg.box": """
                import threading

                class Box:
                    def __init__(self):
                        self.lock = threading.Lock()
                        self.items = []

                    def add(self, item):
                        with self.lock:
                            self.items.append(item)
            """,
        })
        model = ConcurrencyModel.build(graph)
        sites = model.writes[("pkg.box.Box", "items")]
        locked = [s for s in sites if s.op == "mutcall"]
        assert locked and locked[0].locks == ("self.lock",)
