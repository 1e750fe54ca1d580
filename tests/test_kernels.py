"""Exact kernels: known values and agreement with independent routes."""

import ast
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadet import kernels
from alphadet.exact import PolyQ, rank_q
from reference import gauss_jordan

zp_st = st.lists(st.integers(min_value=-9, max_value=9), max_size=5).map(
    lambda c: kernels.zp_trim(list(c))
)


def test_backend_selected():
    assert kernels.BACKEND == "python"


def test_no_module_but_kernels_names_a_zp_function():
    # Q is the only ring on the package's paths; the Z[a] kernels stay as
    # the tests' Bareiss reference.
    package = Path(kernels.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "kernels.py":
            continue
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not {x for x in names if x.startswith(("zp_", "zpm_"))}, path.name


def test_every_library_name_is_reached_from_library_code():
    # The library keeps only what its own code reaches: every top-level
    # function, class and method is named somewhere in src/ outside its own
    # definition.  Dunder methods are reached by the language.  Names that
    # only tests use as second routes live in tests/reference.py.
    allowed = {
        # the README's round-trip API: from_json(to_json(r)) == r
        "report.from_json",
        # perfbench/child.py wraps these; they go at the next benchmark change
        "exact.nullspace_q",
        "kernels.zpm_rank",
        "seminormal.rep_of",
    }
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def uses(node):
        names = Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
        names.update(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))
        return names

    package = Path(kernels.__file__).parent
    total, defs = Counter(), []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        total.update(uses(tree))
        for node in tree.body:
            if isinstance(node, kinds):
                defs.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defs.extend(
                    (f"{path.stem}.{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, kinds)
                )
    unreached = {
        qualname
        for qualname, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and total[node.name] == uses(node)[node.name]
    }
    assert unreached == allowed


def test_no_module_imports_numpy_and_no_runtime_dependency():
    # Every check is exact over Q, so the package needs no numeric library.
    package = Path(kernels.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        modules |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module}
        assert "numpy" not in {m.split(".")[0] for m in modules}, path.name
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((package.parent.parent / "pyproject.toml").read_text())
    assert pyproject["project"]["dependencies"] == []


def test_zp_basics():
    assert kernels.zp_sub([1], [1]) == []
    assert kernels.zp_mul([1, 1], [1, -1]) == [1, 0, -1]
    assert kernels.zp_mul([], [1, 2]) == []
    assert kernels.zp_divexact([1, 0, -1], [1, 1]) == [1, -1]
    with pytest.raises(ValueError):
        kernels.zp_divexact([1, 1], [2])
    with pytest.raises(ZeroDivisionError):
        kernels.zp_divexact([1], [])


def test_zpm_rank_known():
    # diag(1, x, x(1-x)) has full rank over Q(x)
    rows = [
        [[1], [], []],
        [[], [0, 1], []],
        [[], [], [0, 1, -1]],
    ]
    rank, pivots = kernels.zpm_rank(rows)
    assert rank == 3
    assert pivots[0] == [1]
    dep = [[[1], [0, 1]], [[0, 1], [0, 0, 1]]]
    assert kernels.zpm_rank(dep)[0] == 1


def test_qm_rref_known():
    rows = [
        [Fraction(2), Fraction(4)],
        [Fraction(1), Fraction(3)],
    ]
    rref, piv = kernels.qm_rref(rows)
    assert piv == [0, 1]
    assert rref == [[1, 0], [0, 1]]


@given(zp_st, zp_st)
@settings(max_examples=80, deadline=None)
def test_divexact_inverts_mul(a, b):
    if not b:
        return
    prod = kernels.zp_mul(a, b)
    assert kernels.zp_divexact(prod, b) == a


@given(zp_st, zp_st)
@settings(max_examples=80, deadline=None)
def test_parity_scalar_ops(a, b):
    # PolyQ arithmetic is an independent implementation over Q.
    assert kernels.zp_sub(a, b) == list((PolyQ(a) - PolyQ(b)).coeffs)
    assert kernels.zp_mul(a, b) == list((PolyQ(a) * PolyQ(b)).coeffs)


def _sparse_rational_rows(rng, nr, nc):
    """About 80% zeros, with zero rows and duplicate rows mixed in."""
    rows = []
    for _ in range(nr):
        kind = rng.random()
        if kind < 0.15:
            rows.append([Fraction(0)] * nc)
        elif kind < 0.3 and rows:
            rows.append(list(rng.choice(rows)))
        else:
            rows.append([
                Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 6))
                if rng.random() < 0.2 else Fraction(0)
                for _ in range(nc)
            ])
    return rows


def test_parity_matrix_ops():
    rng = random.Random(7)
    qcases = []
    for _ in range(25):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        rows = [
            [
                kernels.zp_trim([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
                for _ in range(nc)
            ]
            for _ in range(nr)
        ]
        rank, pivots = kernels.zpm_rank(rows)
        # At a point where no pivot vanishes the elimination specializes, so
        # the rank over Q(x) is the rank of the evaluated matrix over Q.
        x = next(
            x for x in range(100) if all(PolyQ(p)(x) != 0 for p in pivots)
        )
        assert rank == rank_q([[PolyQ(p)(x) for p in row] for row in rows])
        qcases.append([
            [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(nc)]
            for _ in range(nr)
        ])
    # qm_rref scales and eliminates only over the pivot row's nonzero
    # columns; the textbook Gauss-Jordan touches every entry.  Sparse
    # cases: rank-deficient, square, tall and wide.
    shapes = [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(120)]
    shapes += [(3, 12), (2, 16), (8, 3), (6, 6)]
    qcases += [_sparse_rational_rows(rng, nr, nc) for nr, nc in shapes]
    for qrows in qcases:
        before = [list(r) for r in qrows]
        got = kernels.qm_rref(qrows)
        assert got == gauss_jordan(qrows)
        assert rank_q(qrows) == len(gauss_jordan(qrows)[1])
        assert all(isinstance(x, Fraction) for row in got[0] for x in row)
        assert qrows == before
        assert all(r is not g for r, g in zip(qrows, got[0]))
