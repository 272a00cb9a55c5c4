"""Source guard: every public name of the package has a caller.

A public module-level function or class of ``src/specquad``, and a public
method of a public class, must be referenced in the package outside its
own definition (an ``__all__`` entry is a string, not a reference), or be
traced by name in the span table of ``bench/spans.py`` (a traced
``Class.method`` counts for the method).  Methods are matched by name, so a
use of any method of that name counts.  Helpers that only tests use belong
under ``tests/``.
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


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_defs(node):
    """The public function and class definitions directly in node's body."""
    return [d for d in node.body if isinstance(d, DEFS) and not d.name.startswith("_")]


def dead_names(sources, traced):
    """'module.name' of every public module-level function or class and
    'module.Class.method' of every public method of a public class that no
    module references outside the definition of that name, and that is
    not in ``traced``; ``sources`` maps module names to their source."""
    defined, used = [], set()

    def scan(node, owners):
        for child in ast.iter_child_nodes(node):
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name is not None and name not in owners:
                used.add(name)
            scan(child, owners | {child.name} if isinstance(child, DEFS) else owners)

    for module, source in sources.items():
        tree = ast.parse(source)
        for top in public_defs(tree):
            defined.append((f"{module}.{top.name}", top.name))
            if isinstance(top, ast.ClassDef):
                defined += [(f"{module}.{top.name}.{m.name}", m.name)
                            for m in public_defs(top) if not isinstance(m, ast.ClassDef)]
        scan(tree, frozenset())
    return sorted(path for path, name in defined if name not in used and name not in traced)


def test_every_public_name_has_a_caller():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert dead_names(sources, traced_names()) == []


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
    # the span table's names are read, methods with their classes
    assert {"massless_degeneracy_check", "TruncatedOperator", "__matmul__"} <= traced_names()
