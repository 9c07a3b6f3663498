"""Call-graph construction and resolution edge cases.

Summaries are built straight from parsed sources (no filesystem), so
these tests pin the resolver semantics the interprocedural rules
depend on: aliased imports, ``__init__`` re-exports, ``self.``
dispatch through annotated attributes, base-class method resolution,
and cycle termination.
"""

import ast
import textwrap

from repro.lint.callgraph import CallGraph, build_summary, module_name
from repro.lint.dataflow import fork_shared_readers, reachable_taints, shortest_chains


def graph_of(files):
    summaries = []
    for relpath, text in files.items():
        tree = ast.parse(textwrap.dedent(text))
        summaries.append(build_summary(relpath, tree))
    return CallGraph(summaries)


def callees(graph, symbol):
    return sorted(callee for callee, _record in graph.edges.get(symbol, ()))


class TestModuleName:
    def test_src_prefix_is_stripped(self):
        assert module_name("src/repro/graph/io.py") == ("repro.graph.io", False)

    def test_init_names_its_package(self):
        assert module_name("src/repro/graph/__init__.py") == ("repro.graph", True)

    def test_paths_without_src_keep_all_segments(self):
        assert module_name("pkg/core/api.py") == ("pkg.core.api", False)


class TestNameResolution:
    def test_aliased_module_import(self):
        graph = graph_of({
            "pkg/io.py": "def load(path):\n    return path\n",
            "pkg/use.py": """
                import pkg.io as pio

                def f():
                    return pio.load("x")
            """,
        })
        assert callees(graph, "pkg.use.f") == ["pkg.io.load"]

    def test_renamed_from_import(self):
        graph = graph_of({
            "pkg/io.py": "def load(path):\n    return path\n",
            "pkg/use.py": """
                from pkg.io import load as ld

                def f():
                    return ld("x")
            """,
        })
        assert callees(graph, "pkg.use.f") == ["pkg.io.load"]

    def test_reexport_through_init(self):
        graph = graph_of({
            "pkg/__init__.py": "from pkg.impl import load\n",
            "pkg/impl.py": "def load():\n    return 1\n",
            "main.py": """
                import pkg

                def f():
                    return pkg.load()
            """,
        })
        assert callees(graph, "main.f") == ["pkg.impl.load"]

    def test_relative_import(self):
        graph = graph_of({
            "pkg/io.py": "def load(path):\n    return path\n",
            "pkg/use.py": """
                from .io import load

                def f():
                    return load("x")
            """,
        })
        assert callees(graph, "pkg.use.f") == ["pkg.io.load"]

    def test_suffix_match_resolves_fixture_style_roots(self):
        # modules rooted under tests/ resolve imports written against
        # the shorter in-repo name, as long as the suffix is unique
        graph = graph_of({
            "tests/proj/core/io.py": "def load():\n    return 1\n",
            "tests/proj/use.py": """
                from proj.core.io import load

                def f():
                    return load()
            """,
        })
        assert callees(graph, "tests.proj.use.f") == ["tests.proj.core.io.load"]

    def test_unknown_names_produce_no_edges(self):
        graph = graph_of({
            "pkg/use.py": """
                import os

                def f(x):
                    x.whatever()
                    return os.path.join("a", "b")
            """,
        })
        assert callees(graph, "pkg.use.f") == []

    def test_constructor_call_edges_into_init(self):
        graph = graph_of({
            "pkg/mod.py": """
                class Engine:
                    def __init__(self, k):
                        self.k = k

                def make():
                    return Engine(2)
            """,
        })
        assert callees(graph, "pkg.mod.make") == ["pkg.mod.Engine.__init__"]


class TestMethodDispatch:
    def test_self_dispatch(self):
        graph = graph_of({
            "pkg/mod.py": """
                class Engine:
                    def run(self):
                        return self.helper()

                    def helper(self):
                        return 1
            """,
        })
        assert callees(graph, "pkg.mod.Engine.run") == ["pkg.mod.Engine.helper"]

    def test_self_dispatch_walks_local_bases(self):
        graph = graph_of({
            "pkg/base.py": """
                class Base:
                    def helper(self):
                        return 1
            """,
            "pkg/mod.py": """
                from pkg.base import Base

                class Child(Base):
                    def run(self):
                        return self.helper()
            """,
        })
        assert callees(graph, "pkg.mod.Child.run") == ["pkg.base.Base.helper"]

    def test_annotated_attribute_dispatch(self):
        graph = graph_of({
            "pkg/mod.py": """
                class Store:
                    def put(self, key):
                        return key

                class Engine:
                    store: Store

                    def run(self):
                        return self.store.put("k")
            """,
        })
        assert callees(graph, "pkg.mod.Engine.run") == ["pkg.mod.Store.put"]

    def test_init_assigned_attribute_dispatch(self):
        graph = graph_of({
            "pkg/store.py": """
                class Store:
                    def put(self, key):
                        return key
            """,
            "pkg/mod.py": """
                from pkg.store import Store

                class Engine:
                    def __init__(self):
                        self.store = Store()

                    def run(self):
                        return self.store.put("k")
            """,
        })
        assert callees(graph, "pkg.mod.Engine.run") == ["pkg.store.Store.put"]

    def test_annotated_parameter_dispatch(self):
        graph = graph_of({
            "pkg/mod.py": """
                class Log:
                    def window(self, hours):
                        return hours

                def f(log: Log):
                    return log.window(4)
            """,
        })
        assert callees(graph, "pkg.mod.f") == ["pkg.mod.Log.window"]

    def test_base_class_cycle_terminates(self):
        graph = graph_of({
            "pkg/mod.py": """
                class A(B):
                    pass

                class B(A):
                    def run(self):
                        return self.missing()
            """,
        })
        # A <-> B inheritance loop: resolution returns None, no hang
        assert graph.mro_method("pkg.mod", "A", "missing") is None


class TestDataflow:
    def _cyclic_graph(self):
        return graph_of({
            "pkg/a.py": """
                import time
                from pkg.b import pong

                def ping():
                    return pong()

                def tick():
                    return time.time()
            """,
            "pkg/b.py": """
                from pkg.a import ping, tick

                def pong():
                    ping()
                    return tick()
            """,
        })

    def test_call_cycle_terminates_and_taints(self):
        graph = self._cyclic_graph()
        taints = reachable_taints(graph, ("a.ping",))
        assert [t["kind"] for t in taints] == ["wall-clock"]
        assert taints[0]["chain"] == (
            "pkg.a.ping", "pkg.b.pong", "pkg.a.tick",
        )

    def test_shortest_chain_wins(self):
        graph = graph_of({
            "pkg/mod.py": """
                import time

                def entry():
                    middle()
                    return leaf()

                def middle():
                    return leaf()

                def leaf():
                    return time.time()
            """,
        })
        chains = shortest_chains(graph, ["pkg.mod.entry"])
        assert chains["pkg.mod.leaf"] == ("pkg.mod.entry", "pkg.mod.leaf")

    def test_unreachable_taint_is_not_reported(self):
        graph = graph_of({
            "pkg/mod.py": """
                import time

                def entry():
                    return 1

                def orphan():
                    return time.time()
            """,
        })
        assert reachable_taints(graph, ("mod.entry",)) == []

    def test_fork_shared_readers_close_over_callers(self):
        graph = graph_of({
            "pkg/mod.py": """
                _FORK_SHARED = None

                def direct():
                    log, window = _FORK_SHARED
                    return log, window

                def indirect():
                    return direct()

                def unrelated():
                    return 1
            """,
        })
        assert fork_shared_readers(graph) == {
            "pkg.mod.direct", "pkg.mod.indirect",
        }
