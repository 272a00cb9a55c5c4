"""Source guards: one fiber-major block layout across the package, and no
linear-algebra library on the banded check path.

Every stack of fiber blocks is (d, d, *levels), so no module converts a
stack between layouts: a transpose or moveaxis that moves a level axis
belongs only to the dense oracle ``to_dense``/``from_dense``, and the
level-major broadcast ``[:, None, None]`` appears nowhere.  Modules reach
the block algebra through the public names of ``operators`` only.

The band core, the checks, the de Sitter assembly, the reconstruction and
the finite triples use no ``numpy.linalg`` or ``scipy.linalg``: their
norms and fits are explicit sums.  The block norms of a fiber that is not
2-dimensional, the dense exponential and the multi-point distance search
are the exceptions, named below.  The CLI, the field-side
checks and the finite triples make no ndarray BLAS product (``@``,
``dot``, ``matmul``, ``tensordot``, ``inner``, ``vdot`` or ``einsum``)
outside that search either.
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


# the modules of the verify and extract path, and the finite triples
BANDED = ("operators", "quadruple", "reconstruct", "desitter", "finite")
# the branch of connes_distance that searches over free coordinates
DISTANCE_SEARCH = {("finite", "connes_distance"): "free"}
# (module, function) -> the test of the `if` whose body a use must sit in,
# or None for anywhere in the function: the SVD block norms of a fiber that
# is not 2-dimensional, the dense exponential with its SVD norm, and the
# distance search
LINALG_ALLOWED = {
    ("operators", "band_norms"): "blocks.shape[:2] != (2, 2)",
    ("quadruple", "check_noncommutativity"): None,
    **DISTANCE_SEARCH,
}
# the modules whose products are block_product sums
NO_MATMUL = ("cli", "spinfields", "finite")


def is_linalg(node):
    """A reference to numpy.linalg or scipy.linalg, or an import of one."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "linalg" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy", "scipy"))
    if isinstance(node, ast.ImportFrom):
        return (node.module in ("numpy.linalg", "scipy.linalg")
                or (node.module in ("numpy", "scipy")
                    and any(a.name == "linalg" for a in node.names)))
    if isinstance(node, ast.Import):
        return any(a.name in ("numpy.linalg", "scipy.linalg") for a in node.names)
    return False


# the numpy functions that hand a product to BLAS
BLAS_PRODUCTS = ("dot", "matmul", "tensordot", "inner", "vdot", "einsum")


def is_blas_product(node):
    """An ``a @ b`` or ``a @= b``, a call of ``np.dot`` and its kin, a
    ``x.dot(y)``, or an import of one of them from numpy."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        return func.attr == "dot" or (
            func.attr in BLAS_PRODUCTS and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy"))
    if isinstance(node, ast.ImportFrom):
        return node.module == "numpy" and any(a.name in BLAS_PRODUCTS for a in node.names)
    return False


def uses(module, source, forbidden, allowed):
    """Every node of a module for which ``forbidden`` holds, outside the
    places ``allowed`` names, as 'module.py:line'.  A function nested in
    another one sits where its definition sits."""
    found = []

    def visit(node, func, tests):
        # tests: the tests of the enclosing `if`s whose body holds the node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and func is None:
            func, tests = node.name, ()
        elif forbidden(node):
            allow = allowed.get((module, func), False)
            if allow is False or (allow is not None and allow not in tests):
                found.append(f"{module}.py:{node.lineno}")
        if isinstance(node, ast.If):
            visit(node.test, func, tests)
            for stmt in node.body:
                visit(stmt, func, tests + (ast.unparse(node.test),))
            for stmt in node.orelse:
                visit(stmt, func, tests)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, func, tests)

    visit(ast.parse(source), None, ())
    return found


def linalg_uses(module, source):
    """Every reference to numpy.linalg or scipy.linalg in a module, outside
    the allowed places, as 'module.py:line'."""
    return uses(module, source, is_linalg, LINALG_ALLOWED)


def blas_uses(module, source):
    """Every BLAS product in a module outside the distance search."""
    return uses(module, source, is_blas_product, DISTANCE_SEARCH)


def test_no_linear_algebra_library_on_the_banded_path():
    found = []
    for module in BANDED:
        found += linalg_uses(module, (SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert found == []


def test_no_blas_product_in_the_cli_fields_and_finite_triples():
    found = []
    for module in NO_MATMUL:
        found += blas_uses(module, (SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert found == []


def test_linalg_guard_sees_what_it_forbids():
    bad = ("import numpy as np\nfrom scipy.linalg import expm\nimport scipy.linalg\n"
           "from numpy import linalg\n"
           "def fit(a, b):\n    return np.linalg.lstsq(a, b)[0], numpy.linalg.norm(b)\n")
    assert [v.split(":")[1] for v in linalg_uses("quadruple", bad)] == [
        "2", "3", "4", "6", "6"]
    # band_norms may call the SVD in its branch for other fibers only
    norms = ("def band_norms(self, a, k):\n"
             "    if blocks.shape[:2] != (2, 2):\n"
             "        return np.linalg.norm(blocks, 2, axis=(0, 1))\n"
             "    return np.linalg.norm(blocks[0])\n")
    assert linalg_uses("operators", norms) == ["operators.py:4"]
    assert linalg_uses("reconstruct", norms) == ["reconstruct.py:3", "reconstruct.py:4"]
    dense = "def check_noncommutativity(q):\n    from scipy.linalg import expm\n"
    assert linalg_uses("quadruple", dense) == []
    # the distance search may use the SVD and @, in its branch and in a
    # function defined there; the two-point branch and _norms may not
    search = ("def connes_distance(t, i, j):\n"
              "    if free:\n"
              "        def objective(x):\n"
              "            return np.linalg.norm(t.dirac @ x - x @ t.dirac, 2)\n"
              "        dnorm = np.linalg.norm(t.dirac, 2)\n"
              "    else:\n"
              "        dnorm = np.linalg.norm(t.dirac @ t.dirac, 2)\n"
              "def _norms(stack):\n"
              "    return np.linalg.svd(stack @ stack)\n")
    assert linalg_uses("finite", search) == ["finite.py:7", "finite.py:9"]
    assert blas_uses("finite", search) == ["finite.py:7", "finite.py:9"]
    assert linalg_uses("cli", search) == [
        "cli.py:4", "cli.py:5", "cli.py:7", "cli.py:9"]
    assert blas_uses("cli", search) == [
        "cli.py:4", "cli.py:4", "cli.py:7", "cli.py:9"]
    products = ("from numpy import einsum, zeros\n"
                "x = a @ b\ny @= a\nz = a.dot(b)\n"
                "w = np.dot(a, b) + numpy.matmul(a, b) + np.tensordot(a, b, 1)\n"
                "v = np.inner(a, b) + np.vdot(a, b) + np.einsum('ij,jk', a, b)\n"
                "u = np.multiply(a, b).sum() + np.zeros(2) + a.sum(axis=0)\n")
    assert blas_uses("spinfields", products) == [
        f"spinfields.py:{line}" for line in (1, 2, 3, 4, 5, 5, 5, 6, 6, 6)]
