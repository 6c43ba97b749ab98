from fractions import Fraction

from dicritical.arith import QQ, FieldTower, SparseEchelon, kernel_basis

F5 = FieldTower.prime_field(5)


def _rank(rows):
    ech = SparseEchelon(QQ)
    for row in rows:
        ech.insert(row)
    return ech.rank


def test_rank_and_membership():
    ech = SparseEchelon(QQ)
    assert ech.insert({0: Fraction(1), 1: Fraction(2)})
    assert ech.insert({1: Fraction(1)})
    assert not ech.insert({0: Fraction(3), 1: Fraction(1)})  # dependent
    assert ech.rank == 2
    assert ech.contains({0: Fraction(5)})
    assert not ech.contains({2: Fraction(1)})


def test_zero_row_rejected():
    ech = SparseEchelon(QQ)
    assert not ech.insert({})
    assert ech.contains({})
    assert ech.rank == 0


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
    assert ech.rank == 2
    assert ech.contains({((0, 1), 0): Fraction(7)})
