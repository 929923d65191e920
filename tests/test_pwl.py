import random
from fractions import Fraction

import pytest
from fuel import random_genpoly, random_point, random_pwl
from independent_oracles import fiber_infimum
from reference_pwl import reference_lp_value_function, reference_min_combine

from klp.exactnum import vec
from klp.genpoly import NEG_INF, POS_INF, ExtReal, genpoly, whole_space
from klp.pwl import Piece, PwlFunc, lp_value_function, min_combine

F = Fraction


# -- eval ------------------------------------------------------------------------


def test_eval_identity_function():
    f = PwlFunc.constant(1, Piece.affine([1], 0))
    assert f.eval([7]) == ExtReal.of(7)


def test_eval_infinite_piece():
    f = PwlFunc(
        1,
        (
            (genpoly(1, strict=[([-1], 0)]), Piece.plus_inf()),
            (genpoly(1, weak=[([1], 0)]), Piece.affine([0], 0)),
        ),
    )
    assert f.eval([-1]) == POS_INF
    assert f.eval([2]) == ExtReal.of(0)


def test_eval_max_of_y_and_zero():
    cell = genpoly(2, weak=[([1, -1], 0), ([1, 0], 0)])  # x >= y, x >= 0
    v = lp_value_function([cell], 1, [1])
    assert v.eval([-2]) == ExtReal.of(0)
    assert v.eval([5]) == ExtReal.of(5)


def test_eval_outside_every_cell_is_an_error():
    broken = PwlFunc(1, ((genpoly(1, strict=[([1], 0)]), Piece.affine([0], 0)),))
    with pytest.raises(RuntimeError):
        broken.eval([-1])


# -- min_combine --------------------------------------------------------------------


def test_min_combine_single_function_identity():
    f = random_pwl(random.Random(5), 2)
    g = min_combine([f])
    rng = random.Random(6)
    for _ in range(30):
        x = random_point(rng, 2)
        assert g.eval(x) == f.eval(x)


def test_min_combine_linear_vs_zero():
    f = PwlFunc.constant(1, Piece.affine([1], 0))
    zero = PwlFunc.constant(1, Piece.affine([0], 0))
    g = min_combine([f, zero])
    # index 1 wins the tie at the origin
    assert g.eval([0]) == ExtReal.of(0)
    cell_at_zero = next(piece for region, piece in g.cells if region.contains([0]))
    assert cell_at_zero == Piece.affine([1], 0)
    assert g.eval([-4]) == ExtReal.of(-4)
    assert g.eval([3]) == ExtReal.of(0)


def test_min_combine_plus_inf_neutral():
    top = PwlFunc.constant(2, Piece.plus_inf())
    lin = PwlFunc.constant(2, Piece.affine([1, -1], 2))
    g = min_combine([top, lin])
    rng = random.Random(777)
    for _ in range(20):
        x = random_point(rng, 2)
        assert g.eval(x) == lin.eval(x)


def test_min_combine_minus_inf_wins():
    bottom = PwlFunc.constant(1, Piece.minus_inf())
    lin = PwlFunc.constant(1, Piece.affine([1], 0))
    assert min_combine([lin, bottom]).eval([9]) == NEG_INF


def test_min_combine_infinite_piece_comparisons():
    # constant functions over the line: every pair of -inf, affine and +inf
    # pieces, with ties (at x = 0 for the two lines) going to the first function
    probes = [F(-2), F(-1, 2), F(0), F(1, 2), F(2)]
    firsts = [Piece.minus_inf(), Piece.affine([1], 0), Piece.plus_inf()]
    seconds = [Piece.minus_inf(), Piece.affine([-1], 0), Piece.plus_inf()]
    for pf in firsts:
        for pg in seconds:
            f, g = PwlFunc.constant(1, pf), PwlFunc.constant(1, pg)
            combined = min_combine([f, g])
            for x in probes:
                holders = [piece for region, piece in combined.cells if region.contains([x])]
                assert len(holders) == 1
                fx, gx = pf.value_at((x,)), pg.value_at((x,))
                assert combined.eval([x]) == min(fx, gx)
                assert holders[0] is (pf if fx <= gx else pg)


def test_min_combine_pointwise_random():
    rng = random.Random(4242)
    for _ in range(20):
        dim = rng.randint(1, 2)
        funcs = [random_pwl(rng, dim) for _ in range(rng.randint(2, 3))]
        combined = min_combine(funcs)
        for _ in range(40):
            x = random_point(rng, dim)
            assert combined.eval(x) == min(f.eval(x) for f in funcs)


def test_min_combine_matches_reference():
    # same regions (row order and scaling included) and pieces as the
    # reference per-pair split, over +-inf pieces and exactly tied inputs
    rng = random.Random(2020)
    for _ in range(40):
        dim = rng.randint(1, 2)
        constants = [Piece.plus_inf(), Piece.minus_inf(), Piece.affine([1] * dim, 1)]
        funcs = [random_pwl(rng, dim) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            funcs.insert(rng.randrange(len(funcs) + 1), rng.choice(funcs))
        if rng.random() < 0.5:
            funcs.append(PwlFunc.constant(dim, rng.choice(constants)))
        assert min_combine(funcs).cells == reference_min_combine(funcs).cells


def test_min_combine_tie_breaks_to_smallest_index():
    # two distinct lines crossing at x = 1
    f1 = PwlFunc.constant(1, Piece.affine([1], 0))  # x
    f2 = PwlFunc.constant(1, Piece.affine([-1], 2))  # 2 - x
    g = min_combine([f1, f2])
    winner = next(piece for region, piece in g.cells if region.contains([1]))
    assert winner == Piece.affine([1], 0)

    # same functions, opposite order: the new first function owns the tie
    h = min_combine([f2, f1])
    winner = next(piece for region, piece in h.cells if region.contains([1]))
    assert winner == Piece.affine([-1], 2)


def test_partition_property_sampled():
    rng = random.Random(31415)
    for _ in range(15):
        dim = rng.randint(1, 2)
        funcs = [random_pwl(rng, dim) for _ in range(2)]
        combined = min_combine(funcs)
        for _ in range(30):
            x = random_point(rng, dim)
            hits = sum(region.contains(x) for region, _ in combined.cells)
            assert hits == 1


# -- lp_value_function -----------------------------------------------------------------


def test_value_function_max_construction():
    cell = genpoly(2, weak=[([1, -1], 0), ([1, 0], 0)])
    v = lp_value_function([cell], 1, [1])
    rng = random.Random(8)
    for _ in range(40):
        (y,) = random_point(rng, 1)
        assert v.eval([y]) == ExtReal.of(max(y, F(0)))


def test_value_function_unbounded_below_everywhere():
    cell = genpoly(2, weak=[([-1, 1], 0)])  # x <= y
    v = lp_value_function([cell], 1, [1])
    rng = random.Random(9)
    for _ in range(10):
        assert v.eval(random_point(rng, 1)) == NEG_INF


def test_value_function_restricted_domain():
    cell = genpoly(2, weak=[([1, 0], 1), ([-1, -1], 0)])  # x >= 1, -x >= y
    v = lp_value_function([cell], 1, [1])
    assert v.eval([-2]) == ExtReal.of(1)
    assert v.eval([-1]) == ExtReal.of(1)
    assert v.eval([0]) == POS_INF


def test_value_function_zero_objective():
    cell = genpoly(2, weak=[([1, 1], 0)])
    v = lp_value_function([cell], 1, [0])
    assert v.eval([5]) == ExtReal.of(0)


def test_value_function_empty_cell_is_plus_inf():
    empty = genpoly(2, weak=[([1, 0], 1)], strict=[([-1, 0], -1)])
    v = lp_value_function([empty], 1, [1])
    assert v.eval([0]) == POS_INF


def test_value_function_union_pointwise_oracle():
    rng = random.Random(123)
    checked = 0
    for _ in range(12):
        n_x = rng.randint(1, 2)
        n_y = rng.randint(1, 2)
        cells = [
            random_genpoly(rng, n_x + n_y, max_rows=4, bound=2)
            for _ in range(rng.randint(1, 2))
        ]
        cost = tuple(F(rng.randint(-2, 2)) for _ in range(n_x))
        v = lp_value_function(cells, n_x, cost)
        for _ in range(15):
            y = random_point(rng, n_y, span=4, max_den=2)
            assert v.eval(y) == fiber_infimum(cells, n_x, cost, y)
            checked += 1
    assert checked > 100


def test_lp_value_function_matches_reference():
    # random_genpoly draws strict rows and, at times, no rows at all
    rng = random.Random(2021)
    for _ in range(30):
        n_x = rng.randint(1, 2)
        n_y = rng.randint(1, 2)
        cells = [
            random_genpoly(rng, n_x + n_y, max_rows=4, bound=2)
            for _ in range(rng.randint(1, 2))
        ]
        if rng.random() < 0.2:
            cells.append(whole_space(n_x + n_y))
        cost = tuple(F(rng.randint(-2, 2)) for _ in range(n_x))
        expected = reference_lp_value_function(cells, n_x, cost)
        assert lp_value_function(cells, n_x, cost).cells == expected.cells


def test_value_function_continuity_on_closed_cells():
    # one parametric LP: pieces agree where adjacent closed regions meet
    cell = genpoly(2, weak=[([1, -1], 0), ([1, 0], 0)])
    v = lp_value_function([cell], 1, [1])
    affine = [(r, p) for r, p in v.cells if p.offset.is_finite]
    assert len(affine) >= 2
    # the boundary y = 0 belongs to the closure of both affine regions
    for region, piece in affine:
        if not region.closure().contains([0]):
            continue
        assert piece.value_at(vec([0])) == ExtReal.of(0)


def test_adjacent_regions_of_one_cell_agree_on_boundaries():
    rng = random.Random(227)
    cases = [
        (genpoly(2, weak=[([1, -1], 0), ([1, 0], 0)]), 1, (F(1),)),
        (genpoly(2, weak=[([1, 1], 0), ([1, -2], 1), ([1, 0], -2)]), 1, (F(1),)),
        (
            genpoly(3, weak=[([1, 0, -1], 0), ([1, -1, 0], 0), ([1, 0, 0], 0)]),
            1,
            (F(1),),
        ),
    ]
    for _ in range(12):
        n_x = rng.randint(1, 2)
        n_y = rng.randint(1, 2)
        cell = random_genpoly(rng, n_x + n_y, max_rows=4, bound=2)
        cost = tuple(F(rng.randint(-2, 2)) for _ in range(n_x))
        cases.append((cell, n_x, cost))
    checked = 0
    for cell, n_x, cost in cases:
        if cell.is_empty():
            continue
        v = lp_value_function([cell], n_x, cost)
        affine = [(r, p) for r, p in v.cells if p.offset.is_finite]
        for i in range(len(affine)):
            for j in range(i + 1, len(affine)):
                shared = affine[i][0].closure().intersect(affine[j][0].closure())
                if shared.is_empty():
                    continue
                w = shared.witness_point()
                assert affine[i][1].value_at(w) == affine[j][1].value_at(w)
                checked += 1
    assert checked > 0


def test_lp_value_function_rejects_bad_input():
    with pytest.raises(ValueError):
        lp_value_function([], 1, [1])
    with pytest.raises(ValueError):
        lp_value_function([whole_space(2)], 2, [1, 0])
