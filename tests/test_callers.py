"""Source guard: every public name of the package has a caller.

A public module-level function or class of ``src/specquad``, and a public
method of a public class, must be referenced in the package outside its
own definition (an ``__all__`` entry is a string, not a reference), or be
traced by name in the span table of ``bench/spans.py`` (a traced
``Class.method`` counts for the method).  A method or property is also
called when ``bench/spans.py`` reads an attribute of its name, as
``_record_dim`` reads ``BasisDescriptor.dim``; such a read credits no
module-level name.  A reference is a read: an
attribute ``x.name`` in load context, or for a module-level name a bare
``name`` in load context that no parameter or assignment of the enclosing
function rebinds.  A parameter, a loop variable or a local of the same
spelling is no caller.  Methods are matched by name, so a read of any
attribute of that name counts.  Helpers that only tests use belong under
``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "specquad"
SPANS = ROOT / "bench" / "spans.py"


def traced_names():
    """The function, class and method names of the span table."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    table = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "SPAN_NAMES" for t in node.targets))
    return {part for names in table.values() for attr in names for part in attr.split(".")}


def bench_reads():
    """The attribute names ``bench/spans.py`` reads."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_defs(node):
    """The public function and class definitions directly in node's body."""
    return [d for d in node.body if isinstance(d, DEFS) and not d.name.startswith("_")]


def dead_names(sources, traced, method_reads=frozenset()):
    """'module.name' of every public module-level function or class and
    'module.Class.method' of every public method of a public class that no
    module references outside the definition of that name, and that is
    not in ``traced``, nor for a method in ``method_reads``; ``sources``
    maps module names to their source."""
    defined, attrs, names = [], set(), set()

    def scan(node, owners, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                if child.attr not in owners:
                    attrs.add(child.attr)
            elif (isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
                  and child.id not in owners and child.id not in local):
                names.add(child.id)
            inner = local
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = local | bound_names(child)
            scan(child, owners | {child.name} if isinstance(child, DEFS) else owners, inner)

    for module, source in sources.items():
        tree = ast.parse(source)
        for top in public_defs(tree):
            defined.append((f"{module}.{top.name}", top.name, False))
            if isinstance(top, ast.ClassDef):
                defined += [(f"{module}.{top.name}.{m.name}", m.name, True)
                            for m in public_defs(top) if not isinstance(m, ast.ClassDef)]
        scan(tree, frozenset(), frozenset())
    return sorted(path for path, name, method in defined
                  if name not in attrs and name not in traced
                  and (name not in method_reads if method else name not in names))


def bound_names(func):
    """The parameters of a function or lambda and the names its own body
    stores (nested functions and classes excluded)."""
    args = func.args
    bound = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    bound |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    todo = list(func.body) if isinstance(func.body, list) else [func.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        if not isinstance(node, (*DEFS, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return frozenset(bound)


def test_every_public_name_has_a_caller():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert dead_names(sources, traced_names(), bench_reads()) == []


def test_guard_sees_what_it_forbids():
    sources = {
        "a": ("def used():\n    return 1\n\n"
              "def dead(n):\n    return dead(n - 1)\n\n"
              "class Ghost:\n    pass\n\n"
              "class Box:\n"
              "    def open(self):\n        return self.lid()\n\n"
              "    def lid(self):\n        return 1\n\n"
              "    def stale(self, n):\n        return self.stale(n - 1)\n\n"
              "    def _private(self):\n        return 0\n"),
        "b": ("from .a import Box, used\n\n__all__ = ['dead', 'Ghost']\n"
              "x = used() + Box().open()\n"),
    }
    # recursion and an __all__ entry are no callers, for a method too
    assert dead_names(sources, set()) == ["a.Box.stale", "a.Ghost", "a.dead"]
    # a traced name counts as called, and so does a use in the same module
    assert dead_names(sources, {"dead", "stale"}) == ["a.Ghost"]
    sources["a"] += "g = Ghost()\n"
    assert dead_names(sources, {"dead", "stale"}) == []
    # a parameter, a loop variable or a local spelled like a public name is
    # no caller of it, a bare name is no caller of a method, and neither is
    # an attribute store
    shadow = {
        "a": ("def index(n):\n    return n\n\n"
              "class Basis:\n    def level(self):\n        return 0\n"),
        "b": ("from .a import Basis\n\n"
              "def _walk(index, level):\n    return index + level\n\n"
              "def _loop(xs):\n    for index in xs:\n        level = index\n    return level\n\n"
              "def _store(box):\n    box.level = 1\n    return Basis()\n"),
    }
    assert dead_names(shadow, set()) == ["a.Basis.level", "a.index"]
    shadow["b"] += "x = index(1) + Basis().level()\n"
    assert dead_names(shadow, set()) == []
    # an attribute the trace reads calls a method of its name, but no
    # module-level function spelled like it
    reads = {
        "a": ("def median(xs):\n    return xs\n\n"
              "class Basis:\n    @property\n    def dim(self):\n        return 2\n\n"
              "    def median(self):\n        return 0\n"),
        "b": "from .a import Basis\n\nx = Basis()\n",
    }
    assert dead_names(reads, set()) == ["a.Basis.dim", "a.Basis.median", "a.median"]
    assert dead_names(reads, set(), {"dim", "median"}) == ["a.median"]
    # the span table's names are read, methods with their classes; the
    # trace reads BasisDescriptor.dim
    assert {"massless_degeneracy_check", "TruncatedOperator", "__matmul__"} <= traced_names()
    assert "dim" not in traced_names() and {"dim", "median"} <= bench_reads()
