"""Source guard: every public name of the package has a caller.

A public module-level function or class of ``src/specquad`` must be
referenced in the package outside its own definition (an ``__all__`` entry
is a string, not a reference), or be traced by name in the span table of
``bench/spans.py``.  Helpers that only tests use belong under ``tests/``.
``WAITING`` lists the test-only names still to move; moving one fails this
test until its entry goes, so the list only shrinks.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "specquad"
SPANS = ROOT / "bench" / "spans.py"

# test-only names still waiting to move under tests/
WAITING = {"sl2.build_generators"}


def traced_names():
    """The function, class and method names of the span table."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    table = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "SPAN_NAMES" for t in node.targets))
    return {part for names in table.values() for attr in names for part in attr.split(".")}


def dead_names(sources, traced):
    """'module.name' of every public module-level function or class that no
    module references outside the name's own definition, and that is not
    in ``traced``; ``sources`` maps module names to their source."""
    defined, used = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            if (isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not top.name.startswith("_")):
                defined.append((module, top.name))
                owner = top.name
            else:
                owner = None
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != owner:
                    used.add(name)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in used and name not in traced)


def test_every_public_name_has_a_caller():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert dead_names(sources, traced_names()) == sorted(WAITING)


def test_guard_sees_what_it_forbids():
    sources = {
        "a": ("def used():\n    return 1\n\n"
              "def dead(n):\n    return dead(n - 1)\n\n"
              "class Ghost:\n    pass\n"),
        "b": "from .a import used\n\n__all__ = ['dead', 'Ghost']\nx = used()\n",
    }
    # recursion and an __all__ entry are no callers
    assert dead_names(sources, set()) == ["a.Ghost", "a.dead"]
    # a traced name counts as called, and so does a use in the same module
    assert dead_names(sources, {"dead"}) == ["a.Ghost"]
    sources["a"] += "g = Ghost()\n"
    assert dead_names(sources, {"dead"}) == []
    # the span table's names are read, methods with their classes
    assert {"massless_degeneracy_check", "TruncatedOperator", "__matmul__"} <= traced_names()
