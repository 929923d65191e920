import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fuel import random_genpoly, random_point
from independent_oracles import substituted_fiber
from reference_rows import reference_equality_pivot, reference_reduce

from klp.genpoly import NEG_INF, POS_INF, ExtReal, GenPoly, _reduce, genpoly, whole_space

F = Fraction

small_int = st.integers(min_value=-3, max_value=3)


@st.composite
def small_polys(draw, max_dim=3, max_rows=4):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    row = st.tuples(
        st.lists(small_int, min_size=dim, max_size=dim), small_int
    )
    weak = draw(st.lists(row, max_size=max_rows))
    strict = draw(st.lists(row, max_size=2))
    return genpoly(dim, weak, strict)


# -- ExtReal ------------------------------------------------------------------


def test_extreal_total_order():
    assert NEG_INF < ExtReal.of(-100) < ExtReal.of(0) < ExtReal.of(100) < POS_INF
    assert not POS_INF < POS_INF
    assert min(POS_INF, ExtReal.of(3), NEG_INF) == NEG_INF


def test_extreal_arithmetic():
    assert ExtReal.of("3/2").plus(F(1, 2)) == ExtReal.of(2)
    assert POS_INF.plus(F(5)) == POS_INF
    assert NEG_INF.plus(F(-5)) == NEG_INF
    assert ExtReal.of(3).scaled(F(1, 3)) == ExtReal.of(1)
    assert NEG_INF.scaled(F(7)) == NEG_INF
    with pytest.raises(ValueError):
        ExtReal.of(1).scaled(F(0))


# -- membership -----------------------------------------------------------------


def test_contains_strict_boundary_excluded():
    p = genpoly(1, strict=[([1], 0)])
    assert p.contains([F(1, 2)])
    assert not p.contains([0])


def test_contains_weak_box():
    p = genpoly(1, weak=[([1], 0), ([-1], -1)])
    assert p.contains([1])


def test_contains_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        genpoly(2).contains([1])


# -- elimination and projection -----------------------------------------------------


def test_eliminate_single_pair():
    p = genpoly(2, weak=[([1, 0], 0)], strict=[([-1, 1], 0)])  # x>=0, y-x>0
    target = genpoly(1, strict=[([1], 0)])  # y > 0
    out = p.eliminate(0)
    assert out.is_subset(target) and target.is_subset(out)


def test_eliminate_inconsistent_bounds_to_constant():
    p = genpoly(1, weak=[([1], 1), ([-1], 0)])  # x>=1, x<=0
    out = p.eliminate(0)
    assert out.dim == 0
    assert out.is_empty()


def test_eliminate_vacuous_copies_rows():
    p = genpoly(2, weak=[([0, 1], 3)], strict=[([0, -2], -1)])
    out = p.eliminate(0)
    assert out.weak == (((F(1),), F(3)),)
    assert out.strict == (((F(-2),), F(-1)),)


def test_eliminate_merges_dominated_parallel_rows():
    # y >= 3 implies 2y > -1, so only the binding row survives
    p = genpoly(2, weak=[([0, 1], 3)], strict=[([0, 2], -1)])
    out = p.eliminate(0)
    assert out.weak == (((F(1),), F(3)),)
    assert out.strict == ()


def test_project_identity():
    p = genpoly(2, weak=[([1, -1], 0)], strict=[([0, 1], 2)])
    out = p.project([0, 1])
    assert out.is_subset(p) and p.is_subset(out)


def test_project_keeps_requested_order():
    p = genpoly(2, weak=[([1, 0], 1)])  # x >= 1, y free
    swapped = p.project([1, 0])  # (y, x)
    assert swapped.contains([F(99), F(1)])
    assert not swapped.contains([F(0), F(0)])


def test_project_drops_decision_coordinate():
    p = genpoly(2, weak=[([1, 0], 0)], strict=[([-1, 1], 0)])  # x>=0, y>x
    out = p.project([1])
    target = genpoly(1, strict=[([1], 0)])
    assert out.is_subset(target) and target.is_subset(out)


def test_projection_of_empty_set_is_empty():
    p = genpoly(2, weak=[([1, 0], 1)], strict=[([-1, 0], -1)])  # x>=1 and x<1
    assert p.is_empty()
    assert p.project([1]).is_empty()


def test_fiber_soundness_sampled():
    rng = random.Random(20240601)
    for _ in range(60):
        dim = rng.randint(2, 4)
        poly = random_genpoly(rng, dim, max_rows=6, bound=3)
        size = rng.randint(1, dim - 1)
        keep = sorted(rng.sample(range(dim), size))
        projected = poly.project(keep)
        point = random_point(rng, size)
        fiber = substituted_fiber(poly, keep, point)
        assert projected.contains(point) == (not fiber.is_empty())


def test_elimination_order_independence():
    rng = random.Random(7)
    for _ in range(25):
        dim = rng.randint(3, 4)
        poly = random_genpoly(rng, dim, max_rows=5, bound=2)
        keep = [0]
        one = poly.eliminate(2).eliminate(1)
        other = poly.eliminate(1).eliminate(1)
        if dim == 4:
            one = one.eliminate(1)
            other = other.eliminate(1)
        via_project = poly.project(keep)
        for a, b in [(one, other), (one, via_project)]:
            assert a.is_subset(b) and b.is_subset(a)


# -- emptiness, closure, complement -----------------------------------------------


def test_is_empty_examples():
    assert genpoly(1, weak=[([-1], 0)], strict=[([1], 0)]).is_empty()
    assert not genpoly(1, strict=[([1], 0), ([-1], -1)]).is_empty()
    assert not genpoly(3).is_empty()


def test_empty_mixed_strict_weak_boundary():
    # x >= 1 and x < 1 only share the excluded boundary point
    assert genpoly(1, weak=[([1], 1)], strict=[([-1], -1)]).is_empty()
    # but x >= 1 and x <= 1 do intersect
    assert not genpoly(1, weak=[([1], 1), ([-1], -1)]).is_empty()


def test_closure_examples():
    assert genpoly(1, strict=[([1], 0)]).closure() == genpoly(1, weak=[([1], 0)])
    closed = genpoly(1, weak=[([1], 0)])
    assert closed.closure() == closed
    both = genpoly(2, strict=[([1, 0], 0), ([-1, 1], 0)]).closure()
    assert both.strict == ()
    assert both.contains([0, 0])


def test_closure_requires_nonempty():
    with pytest.raises(ValueError):
        genpoly(1, weak=[([-1], 0)], strict=[([1], 0)]).closure()


def test_closure_contains_original():
    rng = random.Random(11)
    for _ in range(30):
        poly = random_genpoly(rng, rng.randint(1, 3))
        if poly.is_empty():
            continue
        closed = poly.closure()
        assert not closed.strict
        assert poly.is_subset(closed)


def test_complement_single_weak_row():
    p = genpoly(1, weak=[([2], 3)])
    cells = p.complement_cells()
    assert len(cells) == 1
    assert cells[0].strict == (((F(-2),), F(-3)),)


def test_complement_of_whole_space_is_nothing():
    assert whole_space(3).complement_cells() == ()


def test_complement_two_row_mixed_system():
    p = genpoly(2, weak=[([1, 0], 0)], strict=[([0, 1], 0)])  # x>=0, y>0
    cells = p.complement_cells()
    assert len(cells) == 2
    assert cells[0].is_subset(genpoly(2, strict=[([-1, 0], 0)]))
    assert genpoly(2, strict=[([-1, 0], 0)]).is_subset(cells[0])
    second = genpoly(2, weak=[([1, 0], 0), ([0, -1], 0)])
    assert cells[1].is_subset(second) and second.is_subset(cells[1])


def test_complement_partition_sampled():
    rng = random.Random(99)
    for _ in range(40):
        dim = rng.randint(1, 3)
        poly = random_genpoly(rng, dim, max_rows=5)
        cells = poly.complement_cells()
        for _ in range(25):
            x = random_point(rng, dim)
            hits = int(poly.contains(x)) + sum(c.contains(x) for c in cells)
            assert hits == 1


# -- witnesses ---------------------------------------------------------------------


def test_witness_open_interval_midpoint():
    p = genpoly(1, strict=[([1], 0), ([-1], -1)])
    assert p.witness_point() == (F(1, 2),)


def test_witness_empty_is_none():
    assert genpoly(1, weak=[([-1], 0)], strict=[([1], 0)]).witness_point() is None


def test_witness_one_sided_rule():
    p = genpoly(1, weak=[([1], F(3, 2))])
    assert p.witness_point() == (F(5, 2),)


def test_witness_iff_nonempty_and_contained():
    rng = random.Random(2024)
    for _ in range(60):
        poly = random_genpoly(rng, rng.randint(1, 4))
        w = poly.witness_point()
        assert (w is None) == poly.is_empty()
        if w is not None:
            assert poly.contains(w)


# -- linear optimization -------------------------------------------------------------


def test_inf_linear_open_halfline():
    value, attained = genpoly(1, strict=[([1], 0)]).inf_linear([1])
    assert value == ExtReal.of(0) and not attained


def test_inf_linear_unbounded_ray():
    value, attained = genpoly(1, weak=[([1], 0)]).inf_linear([-1])
    assert value == NEG_INF and not attained


def test_inf_linear_empty_set():
    value, attained = genpoly(1, weak=[([-1], 0)], strict=[([1], 0)]).inf_linear([1])
    assert value == POS_INF and not attained


def test_inf_linear_attained_box():
    value, attained = genpoly(2, weak=[([1, 0], 0), ([0, 1], 0)]).inf_linear([1, 1])
    assert value == ExtReal.of(0) and attained


def test_inf_matches_closure_inf():
    rng = random.Random(31337)
    for _ in range(40):
        dim = rng.randint(1, 3)
        poly = random_genpoly(rng, dim, max_rows=5)
        if poly.is_empty():
            continue
        cost = random_point(rng, dim, span=3, max_den=2)
        assert poly.inf_linear(cost)[0] == poly.closure().inf_linear(cost)[0]


def test_inf_linear_minimizer_iff_cap_nonempty():
    # reference: the infimum is attained iff P meets {x : c.x <= value}
    rng = random.Random(2718)
    finite = unattained = 0
    for _ in range(2400):
        dim = rng.randint(1, 3)
        poly = random_genpoly(rng, dim, max_rows=5)
        cost = random_point(rng, dim, span=3, max_den=2)
        value, minimizer = poly.inf_linear(cost)
        assert (value == POS_INF) == poly.is_empty()
        if not value.is_finite:
            assert minimizer is None
            continue
        finite += 1
        cap = genpoly(dim, weak=[([-q for q in cost], -value.finite)])
        assert (minimizer is None) == poly.intersect(cap).is_empty()
        if minimizer is None:
            unattained += 1
        else:
            assert poly.contains(minimizer)
            assert sum(a * b for a, b in zip(cost, minimizer)) == value.finite
    assert finite > 400 and unattained > 100


def test_inf_linear_dim_zero_minimizer_is_empty_tuple():
    assert GenPoly(0).inf_linear(()) == (ExtReal.of(0), ())
    assert GenPoly(0, strict=(((), F(0)),)).inf_linear(()) == (POS_INF, None)


# -- subset ---------------------------------------------------------------------------


def test_subset_reflexive_and_strict_weak():
    p = genpoly(1, strict=[([1], 0)])
    q = genpoly(1, weak=[([1], 0)])
    assert p.is_subset(p)
    assert p.is_subset(q)
    assert not q.is_subset(p)


def test_zero_rows_encode_constants():
    true_row = genpoly(2, weak=[([0, 0], -1)])
    false_row = genpoly(2, weak=[([0, 0], 1)])
    assert not true_row.is_empty()
    assert false_row.is_empty()


# -- equality substitution path --------------------------------------------------------


def fiber_interval_nonempty(poly: GenPoly, var: int, point) -> bool:
    """Decide fiber nonemptiness over one coordinate by direct interval
    arithmetic; independent of any elimination code."""
    lo = hi = None  # (bound, strict)
    for coeffs, rhs, strict in poly.rows():
        reduced = coeffs[:var] + coeffs[var + 1 :]
        rest = rhs - sum((c * q for c, q in zip(reduced, point)), F(0))
        a = coeffs[var]
        if a == 0:
            if rest > 0 or (strict and rest == 0):
                return False
            continue
        bound = rest / a
        if a > 0:
            if lo is None or bound > lo[0]:
                lo = (bound, strict)
            elif bound == lo[0] and strict:
                lo = (bound, True)
        else:
            if hi is None or bound < hi[0]:
                hi = (bound, strict)
            elif bound == hi[0] and strict:
                hi = (bound, True)
    if lo is None or hi is None:
        return True
    if lo[0] != hi[0]:
        return lo[0] < hi[0]
    return not (lo[1] or hi[1])


def test_substitution_elimination_matches_interval_oracle():
    rng = random.Random(606)
    for _ in range(80):
        dim = rng.randint(2, 4)
        poly = random_genpoly(rng, dim, max_rows=4, bound=2)
        # inject an equality pair so elimination takes the substitution path
        coeffs = tuple(F(rng.randint(-2, 2)) for _ in range(dim - 1))
        coeffs = coeffs + (F(rng.choice([-2, -1, 1, 2])),)
        rhs = F(rng.randint(-2, 2))
        poly = GenPoly(
            dim,
            poly.weak + ((coeffs, rhs), (tuple(-q for q in coeffs), -rhs)),
            poly.strict,
        )
        var = dim - 1
        assert any(row[0][var] != 0 for row in poly._equalities)
        eliminated = poly.eliminate(var)
        for _ in range(10):
            y = random_point(rng, dim - 1, span=4, max_den=2)
            assert eliminated.contains(y) == fiber_interval_nonempty(poly, var, y)


# -- row bookkeeping against the reference ------------------------------------------------


def _row_soup(rng, dim):
    """Rows that exercise every merge rule: parallel rows at different positive
    scales, opposite pairs, zero rows, and strict/weak ties at equal rhs."""
    rows = []
    for _ in range(rng.randint(0, 4)):
        coeffs = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
        rhs = F(rng.randint(-2, 2))
        for _ in range(rng.randint(1, 3)):
            scale = F(rng.randint(1, 4), rng.randint(1, 3))
            shift = rng.choice([0, 0, 1, -1])
            rows.append(
                (tuple(scale * q for q in coeffs), scale * (rhs + shift), rng.random() < 0.4)
            )
        if rng.random() < 0.5:  # the opposite row: an equality pair when weak
            scale = F(rng.randint(1, 3))
            rows.append((tuple(-scale * q for q in coeffs), -scale * rhs, rng.random() < 0.2))
        if rng.random() < 0.3:  # a strict/weak tie at equal rhs
            rows.append((coeffs, rhs, not rows[-1][2]))
    if rng.random() < 0.3:
        rows.append(((F(0),) * dim, F(rng.choice([-1, 0, 0, 1])), rng.random() < 0.5))
    rng.shuffle(rows)
    return rows


def _row_lists(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 4)
        if rng.random() < 0.3:
            yield dim, list(random_genpoly(rng, dim, max_rows=6, bound=2).rows())
        else:
            yield dim, _row_soup(rng, dim)


def test_reduce_matches_reference():
    for dim, rows in _row_lists(1901, 400):
        assert _reduce(rows, dim) == reference_reduce(rows, dim)


def test_equalities_match_reference_pivot():
    for dim, rows in _row_lists(1902, 400):
        weak = tuple((c, r) for c, r, s in rows if not s)
        strict = tuple((c, r) for c, r, s in rows if s)
        for poly in (GenPoly(dim, weak, strict), GenPoly(dim, *_reduce(rows, dim))):
            for var in range(dim):
                first = next((row for row in poly._equalities if row[0][var] != 0), None)
                assert first == reference_equality_pivot(poly, var)


# -- invariances of emptiness and solving --------------------------------------------------


def test_is_empty_invariant_under_row_duplication_order_and_scaling():
    rng = random.Random(1903)
    for dim, rows in _row_lists(1904, 300):
        verdict = GenPoly(
            dim,
            tuple((c, r) for c, r, s in rows if not s),
            tuple((c, r) for c, r, s in rows if s),
        ).is_empty()
        variant = [
            (tuple(scale * q for q in c), scale * r, s)
            for c, r, s in rows + rng.sample(rows, len(rows) // 2)
            for scale in [F(rng.randint(1, 5), rng.randint(1, 5))]
        ]
        rng.shuffle(variant)
        poly = GenPoly(
            dim,
            tuple((c, r) for c, r, s in variant if not s),
            tuple((c, r) for c, r, s in variant if s),
        )
        assert poly.is_empty() == verdict


# -- hypothesis properties ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(small_polys())
def test_closure_property(poly):
    if poly.is_empty():
        return
    closed = poly.closure()
    assert not closed.strict
    assert poly.is_subset(closed)


@settings(max_examples=60, deadline=None)
@given(small_polys())
def test_witness_and_emptiness_agree(poly):
    w = poly.witness_point()
    assert (w is None) == poly.is_empty()
    if w is not None:
        assert poly.contains(w)


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_complement_covers_sampled_grid(poly):
    cells = poly.complement_cells()
    probe = [F(-2), F(-1, 2), F(0), F(1, 2), F(2)]
    point = probe[: poly.dim] if poly.dim <= len(probe) else probe * poly.dim
    x = tuple(point[j % len(probe)] for j in range(poly.dim))
    hits = int(poly.contains(x)) + sum(c.contains(x) for c in cells)
    assert hits == 1


# -- public names ---------------------------------------------------------------------


def test_klp_genpoly_is_the_module():
    # the package does not re-export the constructor over the module's name
    import klp.genpoly as gp

    assert isinstance(gp, types.ModuleType)
    assert gp.genpoly(1, weak=[([1], 0)]).contains([0])
