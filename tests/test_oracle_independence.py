"""Each oracle stays off the route it checks, read from the source.

A static call graph of src/primelattice: every function, method, class and
module-level name is a node, and a node points at each name its code
mentions, resolved through its module's imports (math.lcm stays math.lcm).
Mentioning a name counts as calling it, so a function passed on as a
callback is reached too. A class points at its __post_init__, which is what
Cls(...) runs, and at its other dunder methods; Cls.name points at that
method only, so Cls._trusted(...) reaches no validation. obj.name on a
receiver the graph cannot resolve points at every package method of that
name. Nested functions and lambdas belong to the function they sit in.
Annotations are left out: they only name types.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "primelattice"


def _imports(tree: ast.Module) -> dict[str, str]:
    """Name bound by an import -> what it names: a package module or name
    without the package prefix ("gcdlcm.gcd_lcm_set"), or a dotted outside one."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    bound[alias.name.partition(".")[0]] = alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = node.module or ""
            if node.level == 0 and base.partition(".")[0] == "primelattice":
                base = base.partition(".")[2]
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{base}.{alias.name}" if base else alias.name
    return bound


class _Graph:
    def __init__(self) -> None:
        trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
        self.edges: dict[str, set[str]] = defaultdict(set)
        self.classes: dict[str, set[str]] = {}  # class node -> its method names
        self.methods: dict[str, set[str]] = defaultdict(set)  # method name -> method nodes
        self.globals: dict[str, dict[str, str]] = {}  # module -> module-level name -> node or import
        for module, tree in trees.items():
            scope = _imports(tree)
            for stmt in tree.body:
                for name in self._bound(stmt):
                    scope[name] = f"{module}.{name}"
                if isinstance(stmt, ast.ClassDef):
                    names = {s.name for s in stmt.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))}
                    self.classes[f"{module}.{stmt.name}"] = names
                    for name in names:
                        self.methods[name].add(f"{module}.{stmt.name}.{name}")
            self.globals[module] = scope
        for module, tree in trees.items():
            for stmt in tree.body:
                self._add(module, stmt)

    @staticmethod
    def _bound(stmt: ast.stmt) -> list[str]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [stmt.name]
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            return []
        return [n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]

    def _add(self, module: str, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.ClassDef):
            cls = f"{module}.{stmt.name}"
            for part in stmt.body:
                if isinstance(part, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    node = f"{cls}.{part.name}"
                    self.edges[node] |= self._mentions(module, part)
                    if part.name.startswith("__") and part.name.endswith("__"):
                        self.edges[cls].add(node)
                else:
                    self.edges[cls] |= self._mentions(module, part)
            for expr in (*stmt.decorator_list, *stmt.bases):
                self.edges[cls] |= self._mentions(module, expr)
        else:
            for name in self._bound(stmt):
                self.edges[f"{module}.{name}"] |= self._mentions(module, stmt)

    def _mentions(self, module: str, tree: ast.AST) -> set[str]:
        found: set[str] = set()
        scope = self.globals[module]

        def visit(node: ast.AST) -> None:
            if isinstance(node, ast.Name) and node.id in scope:
                found.add(scope[node.id])
                return
            if isinstance(node, ast.Attribute):
                base = self._resolve(scope, node.value)
                if base is None:
                    found.update(self.methods.get(node.attr, ()))
                    visit(node.value)
                elif base in self.classes:
                    if node.attr in self.classes[base]:
                        found.add(f"{base}.{node.attr}")
                else:
                    found.add(f"{base}.{node.attr}")
                return
            if isinstance(node, ast.arg):
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                children = [*node.decorator_list, *args.defaults, *filter(None, args.kw_defaults), *node.body]
            elif isinstance(node, ast.AnnAssign):
                children = [node.target, node.value] if node.value else [node.target]
            else:
                children = ast.iter_child_nodes(node)
            for child in children:
                visit(child)

        visit(tree)
        return found

    def _resolve(self, scope: dict[str, str], node: ast.expr) -> str | None:
        """The node or import a dotted name resolves to, or None."""
        if isinstance(node, ast.Name):
            return scope.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._resolve(scope, node.value)
            if base is not None and base not in self.classes:
                return f"{base}.{node.attr}"
        return None

    def reach(self, start: str) -> set[str]:
        assert start in self.edges, f"{start} is not a node of the graph"
        seen = {start}
        todo = [start]
        while todo:
            for nxt in self.edges.get(todo.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen


@pytest.fixture(scope="module")
def graph() -> _Graph:
    return _Graph()


# oracle -> the core of the route it checks, which it must never reach
INDEPENDENT = [
    ("permutation.verify_order", "math.lcm"),
    ("permutation.verify_order", "gcdlcm.gcd_lcm_set"),
    ("landau.landau_bruteforce", "landau._build_table"),
    ("landau.landau_bruteforce", "landau._dp_cached"),
    ("landau.partition_count", "landau.partitions"),
    ("gcdlcm._euclid_fold", "factorization._prime_powers"),
    ("gcdlcm.gcd_euclid", "factorization._prime_powers"),
]

# routes the graph must see, so that a graph that finds nothing fails
REACHED = [
    ("permutation.order", "gcdlcm.gcd_lcm_set"),
    ("landau.landau_dp", "landau._build_table"),
    ("landau.landau_dp", "math.lcm"),
    ("landau.asymptotic_table", "landau._dp_cached"),
    ("gcdlcm.gcd_lcm_set", "factorization._prime_powers"),
    # through LandauRecord(...), its __post_init__ and the lambda it passes on
    ("landau.landau_bruteforce", "gcdlcm.gcd_lcm_set"),
    # through lattice.reconstruct, named by its module
    ("gcdlcm.check_distributive_identity", "lattice.reconstruct"),
    # through the lambdas of the _SWEEPS table
    ("cli.verify_sweep", "gcdlcm.check_distributive_identity"),
]


@pytest.mark.parametrize(("oracle", "core"), INDEPENDENT, ids=[f"{a}-{b}" for a, b in INDEPENDENT])
def test_oracle_does_not_reach_the_route_it_checks(graph, oracle, core):
    assert core not in graph.reach(oracle)


@pytest.mark.parametrize(("start", "target"), REACHED, ids=[f"{a}-{b}" for a, b in REACHED])
def test_the_graph_sees_the_routes(graph, start, target):
    assert target in graph.reach(start)


def test_trusted_builds_run_no_validation(graph):
    reached = graph.reach("permutation.cycle_decompose")
    assert "permutation.CycleDecomposition" not in reached
    assert "permutation.CycleDecomposition.__post_init__" in graph.reach("permutation.CycleDecomposition")


def test_the_perfbench_oracles_import_nothing_from_the_package():
    tree = ast.parse((ROOT / "perfbench" / "oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import would reach the package through a sibling module
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("primelattice"):
            imported.append(node.value)  # importlib.import_module("primelattice...")
    assert imported and not [name for name in imported if name.startswith(("primelattice", "."))], imported
