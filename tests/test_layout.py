"""Source guard: one fiber-major block layout across the package.

Every stack of fiber blocks is (d, d, *levels), so no module converts a
stack between layouts: a transpose or moveaxis that moves a level axis
belongs only to the dense oracle ``to_dense``/``from_dense``, and the
level-major broadcast ``[:, None, None]`` appears nowhere.  Modules reach
the block algebra through the public names of ``operators`` only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "specquad"

# (module, function) pairs where the dense level-major order is read
DENSE_ORACLE = {("operators", "to_dense"), ("operators", "from_dense")}


def functions_and_nodes(tree):
    """(enclosing function name or None, node) for every node of a module."""
    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            yield name, child
            yield from walk(child, name)
    return walk(tree, None)


def is_level_major_broadcast(node):
    """x[:, None, None]: a per-level array raised to a level-major stack."""
    if not isinstance(node, ast.Subscript) or not isinstance(node.slice, ast.Tuple):
        return False
    elts = node.slice.elts
    return (len(elts) == 3 and isinstance(elts[0], ast.Slice)
            and all(isinstance(e, ast.Constant) and e.value is None for e in elts[1:]))


def violations_in(module, source):
    """The layout conversions and private operators imports of one module."""
    found = []
    for func, node in functions_and_nodes(ast.parse(source)):
        where = f"{module}.py:{getattr(node, 'lineno', '?')}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("transpose", "moveaxis")
                and (module, func) not in DENSE_ORACLE):
            found.append(f"{where} {node.func.attr} in {func}")
        if is_level_major_broadcast(node):
            found.append(f"{where} [:, None, None]")
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "operators":
            found += [f"{where} imports operators.{a.name}"
                      for a in node.names if a.name.startswith("_")]
    return found


def test_one_block_layout_and_public_operators_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += violations_in(path.stem, path.read_text(encoding="utf-8"))
    assert found == []


def test_guard_sees_what_it_forbids():
    bad = ("from .operators import _block_product, block_stack\n"
           "def f(x):\n"
           "    return x.transpose(1, 2, 0) + np.moveaxis(x, 0, -1)[:, None, None]\n")
    assert sorted(v.split(" ", 1)[1] for v in violations_in("desitter", bad)) == [
        "[:, None, None]", "imports operators._block_product", "moveaxis in f",
        "transpose in f"]
    # the dense oracle may reorder, in operators only
    oracle = "def to_dense(self):\n    return m.transpose(2, 0, 3, 1)\n"
    assert violations_in("operators", oracle) == []
    assert len(violations_in("desitter", oracle)) == 1
