import random
from fractions import Fraction

import pytest

from dicritical.arith import QQ, FieldTower

from echelon_reference import SparseEchelon, kernel_basis

F5 = FieldTower.prime_field(5)
F7 = FieldTower.prime_field(7)
F7A = F7.extended("a", (1, 0, 1))  # a^2 = -1


def _rank(rows):
    ech = SparseEchelon(QQ)
    for row in rows:
        ech.insert(row)
    return len(ech.rows)


def test_rank_and_membership():
    ech = SparseEchelon(QQ)
    assert ech.insert({0: Fraction(1), 1: Fraction(2)})
    assert ech.insert({1: Fraction(1)})
    assert not ech.insert({0: Fraction(3), 1: Fraction(1)})  # dependent
    assert len(ech.rows) == 2
    assert not ech.reduce({0: Fraction(5)})[0]
    assert ech.reduce({2: Fraction(1)})[0]


def test_zero_row_rejected():
    ech = SparseEchelon(QQ)
    assert not ech.insert({})
    assert not ech.reduce({})[0]
    assert len(ech.rows) == 0


def test_kernel_basis_simple():
    # x + y + z = 0 over F5: kernel dimension 2
    rows = [{0: 1, 1: 1, 2: 1}]
    basis = kernel_basis(F5, rows, [0, 1, 2])
    assert len(basis) == 2
    for vec in basis:
        s = F5.zero()
        for k, c in vec.items():
            s = F5.add(s, c)
        assert F5.is_zero(s)


def test_kernel_of_full_rank_system():
    rows = [{0: Fraction(1)}, {1: Fraction(1)}]
    assert kernel_basis(QQ, rows, [0, 1]) == []
    assert _rank(rows) == 2


def test_rank_of_dependent_rows():
    rows = [
        {0: Fraction(1), 1: Fraction(1)},
        {0: Fraction(2), 1: Fraction(2)},
        {1: Fraction(1)},
    ]
    assert _rank(rows) == 2


def test_tuple_keys_sort():
    # keys used in practice are (monomial, component) pairs
    ech = SparseEchelon(QQ)
    ech.insert({((0, 1), 0): Fraction(1), ((1, 0), 0): Fraction(1)})
    ech.insert({((1, 0), 0): Fraction(1)})
    assert len(ech.rows) == 2
    assert not ech.reduce({((0, 1), 0): Fraction(7)})[0]


def dense_kernel(T, rows, columns):
    """Dense Gauss-Jordan: the reference the echelon kernel replaced."""
    col_index = {c: i for i, c in enumerate(columns)}
    n = len(columns)
    mat = []
    for row in rows:
        dense = [T.zero()] * n
        nonzero = False
        for c, v in row.items():
            if not T.is_zero(v):
                dense[col_index[c]] = v
                nonzero = True
        if nonzero:
            mat.append(dense)
    pivots = []
    r = 0
    for j in range(n):
        sel = next((i for i in range(r, len(mat)) if not T.is_zero(mat[i][j])), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = T.inv(mat[r][j])
        mat[r] = [T.mul(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and not T.is_zero(mat[i][j]):
                c = mat[i][j]
                mat[i] = [T.sub(a, T.mul(c, b)) for a, b in zip(mat[i], mat[r])]
        pivots.append(j)
        r += 1
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        vec = {columns[j]: T.one()}
        for rr, pj in enumerate(pivots):
            if not T.is_zero(mat[rr][j]):
                vec[columns[pj]] = T.neg(mat[rr][j])
        basis.append(vec)
    return basis


def _scalar(T, rng):
    if T.base is None:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return T.element_from_index(rng.randrange(T.element_count()))


def _matrix(T, rng, columns, shape):
    """Seeded sparse rows; zero rows, duplicates and full rank by shape."""
    n = len(columns)
    if shape == "full":
        # rows with unit entries on a diagonal and random entries right of it
        rows = []
        for r in range(rng.randint(n // 2, n)):
            row = {columns[r]: T.one()}
            for j in range(r + 1, n):
                if rng.random() < 0.5:
                    row[columns[j]] = _scalar(T, rng)
            rows.append(row)
        rng.shuffle(rows)
        return rows
    rows = []
    for _ in range(rng.randint(1, n)):
        keys = rng.sample(columns, rng.randint(1, min(4, n)))
        rows.append({k: _scalar(T, rng) for k in keys})
    if shape == "degenerate":
        rows.append({})
        rows.append({columns[0]: T.zero()})
        rows.append(dict(rows[0]))
        c = _scalar(T, rng)
        rows.append({k: T.mul(c, v) for k, v in rows[0].items()})
        rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("name,T", [("Q", QQ), ("F7", F7), ("F7(a)", F7A)])
@pytest.mark.parametrize("shape", ["random", "degenerate", "full"])
def test_kernel_basis_matches_dense(name, T, shape):
    rng = random.Random("%s %s" % (shape, name))
    for _ in range(40):
        n = rng.randint(1, 9)
        # column keys of the engine's kind, listed out of their sort order
        columns = [(i, j) for j in range(n) for i in range(n - j)][: rng.randint(1, 12)]
        rng.shuffle(columns)
        rows = _matrix(T, rng, columns, shape)
        got = kernel_basis(T, rows, columns)
        want = dense_kernel(T, rows, columns)
        assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
