from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klp.exactnum import (
    LinearSolution,
    dot,
    encoding_size,
    format_rational,
    frac,
    gauss_solve,
    mat,
    mat_inverse,
    vec,
)

rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)


def mat_vec(m, x):
    return tuple(dot(row, x) for row in m)


def test_gauss_one_by_one():
    sol = gauss_solve(mat([[1]]), vec([Fraction(3, 2)]))
    assert sol.unique and sol.particular == (Fraction(3, 2),)


def test_gauss_inconsistent_rows():
    assert gauss_solve(mat([[1, 1], [1, 1]]), vec([1, 2])) is None


def test_gauss_diagonal():
    sol = gauss_solve(mat([[2, 0], [0, 3]]), vec([4, 9]))
    assert sol.unique and sol.particular == vec([2, 3])


def test_gauss_underdetermined_reports_nullspace():
    sol = gauss_solve(mat([[1, 1]]), vec([2]))
    assert not sol.unique
    assert len(sol.nullspace) == 1
    assert mat_vec(mat([[1, 1]]), sol.nullspace[0]) == vec([0])


def test_gauss_empty_column_system():
    # zero columns: consistent iff the rhs is zero
    assert gauss_solve(((), ()), vec([0, 0])) == LinearSolution((), ())
    assert gauss_solve(((), ()), vec([0, 1])) is None


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=2, max_size=4),
    st.lists(rationals, min_size=3, max_size=3),
)
def test_gauss_residual_is_exactly_zero(rows, x):
    m = mat(rows)
    rhs = mat_vec(m, vec(x))
    sol = gauss_solve(m, rhs)
    assert sol is not None  # constructed to be consistent
    assert mat_vec(m, sol.particular) == rhs
    for v in sol.nullspace:
        assert mat_vec(m, v) == vec([0] * len(rows))


def test_encoding_size_examples():
    assert encoding_size(frac(0)) == 2
    assert encoding_size(frac("3/2")) == 4
    assert encoding_size(frac(1)) == 2


def test_encoding_size_grows_with_magnitude():
    assert encoding_size(frac(1024)) > encoding_size(frac(3))


@settings(max_examples=200, deadline=None)
@given(rationals, rationals)
def test_field_roundtrips(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a


@settings(max_examples=200, deadline=None)
@given(rationals)
def test_canonical_form(q):
    # equal rationals share one canonical numerator/denominator pair
    doubled = Fraction(q.numerator * 2, q.denominator * 2) if q else Fraction(0)
    assert doubled.numerator == q.numerator and doubled.denominator == q.denominator
    assert q.denominator > 0


@settings(max_examples=200, deadline=None)
@given(rationals)
def test_parse_format_roundtrip(q):
    assert frac(format_rational(q)) == q


def test_frac_rejects_floats_and_garbage():
    with pytest.raises(TypeError):
        frac(0.5)
    with pytest.raises(ValueError):
        frac("3/2/1")


def test_mat_inverse():
    m = mat([[2, 0], [1, 1]])
    inv = mat_inverse(m)
    assert mat_vec(inv, vec([2, 3])) == vec([1, 2])
    assert mat_inverse(mat([[1, 1], [2, 2]])) is None
