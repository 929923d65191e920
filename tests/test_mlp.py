import random
from fractions import Fraction

import pytest
from fuel import random_point
from independent_oracles import prefix_fixed_value

from klp import pwl
from klp.genpoly import NEG_INF, POS_INF, ExtReal, GenPoly, _is_empty
from klp.mlp import (
    FINITE,
    INFEASIBLE,
    UNBOUNDED,
    _analysis,
    build_instance,
    check_feasible_point,
    check_optimal_point,
    decide_unbounded,
    decide_val,
    feasible_set,
    is_feasible,
    solve,
    value_functions,
)
from klp.oracle import buchheim_instance, random_instance

F = Fraction


def bilevel_example():
    """Leader min -x2; follower min x2 s.t. x2 >= x1, 0 <= x1, x2 <= 1."""
    return build_instance(
        (1, 1),
        [
            [],
            [
                ((-1, 1), 0),
                ((1, 0), 0),
                ((-1, 0), -1),
                ((0, 1), 0),
                ((0, -1), -1),
            ],
        ],
        [(0, -1), (0, 1)],
    )


# -- instance validation ----------------------------------------------------------


def test_instance_rejects_bad_shapes():
    with pytest.raises(ValueError):
        build_instance((1,), [[((1, 1), 0)]], [(1,)])
    with pytest.raises(ValueError):
        build_instance((1, 1), [[], []], [(0, 1), (1, 1)])  # follower cost on x1
    with pytest.raises(ValueError):
        build_instance((1,), [[]], [(1,)], eps=-1)


# -- value functions ----------------------------------------------------------------


def test_bilevel_value_function():
    vfs = value_functions(bilevel_example())
    assert len(vfs) == 1
    v2 = vfs[0]
    assert v2.eval([F(1, 2)]) == ExtReal.of(F(1, 2))
    assert v2.eval([0]) == ExtReal.of(0)
    assert v2.eval([1]) == ExtReal.of(1)
    assert v2.eval([2]) == POS_INF
    assert v2.eval([-1]) == POS_INF


def test_buchheim_third_level_value_function():
    vfs = value_functions(buchheim_instance())
    v3 = vfs[0]  # over (x1, x2)
    for x2 in [F(0), F(1, 2), F(1), F(3), F(10, 3)]:
        assert v3.eval([0, x2]) == ExtReal.of(max(x2 - 1, F(0)))
    assert v3.eval([-1, 0]) == POS_INF


def test_zero_objective_follower():
    inst = build_instance(
        (1, 1),
        [[], [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0)]],
        [(0, -1), (0, 0)],
    )
    v2 = value_functions(inst)[0]
    assert v2.eval([F(1, 2)]) == ExtReal.of(0)
    assert v2.eval([2]) == POS_INF


def test_value_functions_empty_for_single_level():
    assert value_functions(build_instance((2,), [[]], [(1, 1)])) == []


# -- feasible sets ----------------------------------------------------------------------


def test_feasible_set_level_k_is_the_row_cell():
    inst = bilevel_example()
    desc = feasible_set(inst, 2)
    assert desc.level == 2 and len(desc.cells) == 1
    assert desc.cells[0].contains([F(1, 2), F(3, 4)])
    assert not desc.cells[0].contains([F(1, 2), F(1, 4)])


def test_feasible_set_level_one_is_the_graph():
    cells = feasible_set(bilevel_example(), 1).cells
    rng = random.Random(5)
    for _ in range(60):
        x1, x2 = random_point(rng, 2, span=3, max_den=3)
        inside = any(c.contains([x1, x2]) for c in cells)
        expected = 0 <= x1 <= 1 and x2 == x1
        assert inside == expected


def test_buchheim_level_one_empty():
    assert feasible_set(buchheim_instance(), 1).cells == ()
    assert not is_feasible(buchheim_instance())


# -- solve --------------------------------------------------------------------------------


def test_solve_bilevel_example():
    report = solve(bilevel_example())
    assert report.status == FINITE
    assert report.value == ExtReal.of(-1)
    assert report.attained
    assert report.witness == (F(1), F(1))


def test_solve_buchheim_infeasible():
    report = solve(buchheim_instance())
    assert report.status == INFEASIBLE
    assert report.value == POS_INF
    assert report.witness is None


def test_solve_single_level():
    report = solve(build_instance((1,), [[((1,), 2)]], [(1,)]))
    assert report.status == FINITE
    assert report.value == ExtReal.of(2)
    assert report.attained and report.witness == (F(2),)


def test_solve_unbounded_single_level():
    report = solve(build_instance((1,), [[((1,), 0)]], [(-1,)]))
    assert report.status == UNBOUNDED and report.value == NEG_INF
    assert decide_unbounded(build_instance((1,), [[((1,), 0)]], [(-1,)]))
    assert not decide_unbounded(build_instance((1,), [[((1,), 0)]], [(1,)]))


def test_solve_open_set_unattained():
    inst = build_instance((1,), [[((1,), 0, True)]], [(1,)])  # min x over x > 0
    report = solve(inst)
    assert report.status == FINITE
    assert report.value == ExtReal.of(0)
    assert not report.attained and report.witness is None


def test_k1_degeneration_matches_inf_linear():
    rng = random.Random(77)
    for _ in range(15):
        inst = random_instance(rng.randint(0, 10**6), 1, (2,), (3,), 3)
        cell = feasible_set(inst, 1).cells[0] if feasible_set(inst, 1).cells else None
        report = solve(inst)
        if cell is None:
            assert report.status == INFEASIBLE
        else:
            assert report.value == cell.inf_linear(inst.levels[0].objective)[0]


# -- decision problems ---------------------------------------------------------------------


def test_decide_val_examples():
    inst = bilevel_example()
    assert decide_val(inst, -1)
    assert not decide_val(inst, F(-3, 2))
    assert decide_val(inst, 0)
    assert not decide_val(buchheim_instance(), 1000)


def test_decide_val_unattained_threshold_is_no():
    inst = build_instance((1,), [[((1,), 0, True)]], [(1,)])
    assert not decide_val(inst, 0)  # infimum 0 is not attained
    assert decide_val(inst, F(1, 10))


def _decide_val_by_cap(inst, threshold):
    # the definition decide_val had before it read the cached optimum
    c1 = inst.levels[0].objective
    cap = GenPoly(inst.total, weak=((tuple(-q for q in c1), -F(threshold)),))
    return any(not cell.intersect(cap).is_empty() for cell in feasible_set(inst, 1).cells)


def test_decide_val_matches_cap_definition():
    # seeds 397, 1326 and 1450 of this shape are FINITE and unattained
    seen = set()
    for seed in list(range(40)) + [397, 1326, 1450]:
        inst = random_instance(seed, 3, (1, 1, 1), (1, 1, 2), 2)
        report = solve(inst)
        seen.add((report.status, report.attained))
        thresholds = [0]
        if report.value.is_finite:
            v = report.value.finite
            thresholds += [v, v - 1, v + 1]
        for t in thresholds:
            assert decide_val(inst, t) == _decide_val_by_cap(inst, t)
    assert seen == {
        (FINITE, True), (FINITE, False), (INFEASIBLE, False), (UNBOUNDED, False)
    }


def test_queries_after_solve_do_not_minimize_again(monkeypatch):
    calls = []
    for name in ("inf_linear", "eliminate"):
        original = getattr(GenPoly, name)

        def counting(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(GenPoly, name, counting)
    for inst in (bilevel_example(), buchheim_instance()):
        _analysis.cache_clear()
        _is_empty.cache_clear()
        calls.clear()
        report = solve(inst)
        assert "eliminate" in calls
        threshold = report.value.finite if report.value.is_finite else 0
        point = report.witness or (0,) * inst.total
        calls.clear()
        decide_unbounded(inst)
        decide_val(inst, threshold)
        check_optimal_point(inst, point)
        assert calls == []


def test_cold_queries_without_solve_do_not_minimize(monkeypatch):
    calls = []
    original = GenPoly.inf_linear

    def counting(self, c):
        calls.append(c)
        return original(self, c)

    monkeypatch.setattr(GenPoly, "inf_linear", counting)
    for query in (value_functions, is_feasible, lambda inst: feasible_set(inst, 1)):
        for inst in (bilevel_example(), buchheim_instance()):
            _analysis.cache_clear()
            query(inst)
            assert calls == []


# -- point checking ------------------------------------------------------------------------


def test_check_points_bilevel():
    inst = bilevel_example()
    assert check_feasible_point(inst, (1, 1))
    assert not check_feasible_point(inst, (1, F(1, 2)))  # linear row violated
    assert not check_feasible_point(inst, (0, 1))  # follower suboptimal
    assert check_optimal_point(inst, (1, 1))
    assert not check_optimal_point(inst, (F(1, 2), F(1, 2)))  # feasible, not optimal


def test_check_point_single_level():
    inst = build_instance((1,), [[((1,), 2)]], [(1,)])
    assert check_optimal_point(inst, (2,))
    assert not check_optimal_point(inst, (3,))


def test_membership_matches_level_one_cells():
    rng = random.Random(13)
    for seed in range(10):
        k = rng.choice([2, 3])
        dims = tuple(1 for _ in range(k)) if k == 3 else (1, 2)
        rows = tuple(rng.randint(0, 2) for _ in range(k))
        inst = random_instance(seed, k, dims, rows, 2)
        cells = feasible_set(inst, 1).cells
        for _ in range(50):
            x = random_point(rng, inst.total, span=3, max_den=2)
            assert check_feasible_point(inst, x) == any(c.contains(x) for c in cells)


def test_witness_soundness_random():
    rng = random.Random(555)
    for seed in range(12):
        k = rng.choice([1, 2])
        dims = (2,) if k == 1 else (1, 1)
        rows = tuple(rng.randint(1, 3) for _ in range(k))
        inst = random_instance(seed + 1000, k, dims, rows, 3)
        report = solve(inst)
        if report.witness is not None:
            assert report.attained
            assert check_optimal_point(inst, report.witness)


def test_four_level_chain():
    # min-max-min-min over one variable per level, boxes at the last level;
    # x4 is forced to max(x2 - 1, 0) = 0 on the box, so the leader takes x2 = 0
    inst = build_instance(
        (1, 1, 1, 1),
        [
            [],
            [],
            [],
            [
                ((1, 0, 0, 0), 0),
                ((-1, 0, 0, 0), -1),
                ((0, 1, 0, 0), 0),
                ((0, -1, 0, 0), -1),
                ((0, 0, 1, 0), 0),
                ((0, 0, -1, 0), -1),
                ((0, 0, 0, 1), 0),
                ((0, 0, 0, -1), -1),
                ((0, -1, 0, 1), -1),
            ],
        ],
        [(0, 1, 0, 1), (0, 0, 0, -1), (0, 0, 1, 1), (0, 0, 0, 1)],
    )
    report = solve(inst)
    assert report.status == FINITE
    assert report.value == ExtReal.of(0)
    assert report.attained
    assert check_feasible_point(inst, report.witness)
    assert len(value_functions(inst)) == 3


def test_last_level_without_rows():
    # follower with zero objective and no rows: optimal everywhere
    inst = build_instance((1, 1), [[((1, 0), 2)], []], [(1, 0), (0, 0)])
    report = solve(inst)
    assert report.status == FINITE and report.value == ExtReal.of(2)
    # follower minimizing an unconstrained variable: never optimal anywhere
    hopeless = build_instance((1, 1), [[((1, 0), 2)], []], [(1, 0), (0, 1)])
    assert solve(hopeless).status == INFEASIBLE


def test_empty_last_level_has_no_cells():
    # x2 >= 1 and x2 <= 0 at the last level: nothing is feasible anywhere
    inst = build_instance((1, 1), [[], [((0, 1), 1), ((0, -1), 0)]], [(1, 0), (0, 1)])
    assert feasible_set(inst, 2).cells == ()
    assert feasible_set(inst, 1).cells == ()
    assert solve(inst).status == INFEASIBLE


def test_solve_elimination_counts(monkeypatch):
    # deterministic work counters: a change in the FM work done by a cold
    # solve shows up here
    calls = []
    original = GenPoly.eliminate

    def counting(self, var):
        calls.append(var)
        return original(self, var)

    monkeypatch.setattr(GenPoly, "eliminate", counting)
    counts = []
    for inst in (bilevel_example(), buchheim_instance()):
        _analysis.cache_clear()
        _is_empty.cache_clear()
        calls.clear()
        solve(inst)
        counts.append(len(calls))
    assert counts == [12, 27]


def test_solve_dual_support_counts(monkeypatch):
    # deterministic work counters: one gauss_solve per dual support tried, so
    # a change in the supports a cold solve enumerates shows up here
    calls = []
    original = pwl.gauss_solve

    def counting(m, rhs):
        calls.append(len(rhs))
        return original(m, rhs)

    monkeypatch.setattr(pwl, "gauss_solve", counting)
    counts = []
    for inst in (bilevel_example(), buchheim_instance()):
        _analysis.cache_clear()
        _is_empty.cache_clear()
        calls.clear()
        solve(inst)
        counts.append(len(calls))
    assert counts == [4, 30]


def _with_strict_rows_and_eps(inst, rng):
    """The instance with about a third of its rows made strict and eps drawn
    from {0, 1/2}."""
    return build_instance(
        inst.dims,
        [[(r.coeffs, r.rhs, rng.random() < 0.3) for r in lv.rows] for lv in inst.levels],
        [lv.objective for lv in inst.levels],
        eps=rng.choice([F(0), F(1, 2)]),
    )


def _seeded_instances(seed):
    """Seeded k = 2..4 draws, C1+C2 and C2 with upper rows, each followed by
    a copy with strict rows and eps in {0, 1/2}."""
    rng = random.Random(seed)
    shapes = [
        (2, (1, 2), (0, 3), ("C1", "C2")),
        (2, (1, 1), (1, 2), ("C2",)),
        (3, (1, 1, 1), (0, 0, 3), ("C1", "C2")),
        (3, (1, 1, 1), (1, 1, 2), ("C2",)),
        (4, (1, 1, 1, 1), (0, 0, 0, 2), ("C1", "C2")),
    ]
    for k, dims, rows, require in shapes * 3:
        inst = random_instance(rng.randrange(10**6), k, dims, rows, 1, require)
        yield inst
        yield _with_strict_rows_and_eps(inst, rng)


def test_deeper_cells_miss_infinite_regions():
    # _refine_level skips the +inf regions of V_{l+1}; this is why that is exact
    seen_infinite = 0
    for inst in _seeded_instances(1905):
        n = inst.total
        funcs = dict(zip(range(inst.k, 1, -1), value_functions(inst)))
        for level in range(1, inst.k):
            deeper = feasible_set(inst, level + 1).cells
            for region, piece in funcs[level + 1].cells:
                if piece.offset != POS_INF:
                    continue
                seen_infinite += 1
                for cell in deeper:
                    assert cell.intersect(region.extended(n)).is_empty()
    assert seen_infinite > 0


def test_value_functions_match_prefix_fixing():
    # the only check of a k >= 3 value function made outside the construction
    rng = random.Random(2207)
    finite = 0
    for seed in (2208, 2209, 2210):
        for inst in _seeded_instances(seed):
            if inst.k < 3:
                continue
            for level, vf in zip(range(inst.k, 1, -1), value_functions(inst)):
                points = [region.witness_point() for region, _ in vf.cells]
                points += [random_point(rng, vf.dim, span=1) for _ in range(2)]
                for p in points:
                    value = vf.eval(p)
                    assert value == prefix_fixed_value(inst, level, p), (level, p)
                    finite += value.is_finite
    assert finite > 100


def test_solve_invariant_under_row_order_and_duplication():
    rng = random.Random(1906)
    for inst in _seeded_instances(1907):
        levels = []
        for lv in inst.levels:
            rows = [(r.coeffs, r.rhs, r.strict) for r in lv.rows]
            rows += rng.sample(rows, len(rows) // 2)
            rng.shuffle(rows)
            levels.append(rows)
        variant = build_instance(
            inst.dims, levels, [lv.objective for lv in inst.levels], inst.eps
        )
        report, other = solve(inst), solve(variant)
        assert (other.status, other.value, other.attained) == (
            report.status, report.value, report.attained
        )
        if other.witness != report.witness:
            assert check_optimal_point(inst, other.witness)


def test_solve_invariant_under_permuted_variables_within_a_level():
    # renaming the variables of one player changes no answer
    rng = random.Random(1908)
    shapes = [
        (2, (1, 2), (0, 3), ("C1", "C2")),
        (2, (2, 2), (0, 4), ("C1", "C2")),
        (2, (2, 1), (1, 2), ("C2",)),
        (3, (1, 1, 2), (0, 0, 3), ("C1", "C2")),
        (3, (2, 1, 1), (0, 0, 3), ("C1", "C2")),
    ]
    attained = 0
    for k, dims, rows, require in shapes * 3:
        inst = random_instance(rng.randrange(10**6), k, dims, rows, 1, require)
        for case in (inst, _with_strict_rows_and_eps(inst, rng)):
            level = rng.choice([lv for lv in range(1, k + 1) if dims[lv - 1] > 1])
            start = case.prefix_n(level)
            end = start + dims[level - 1]
            block = list(range(start, end))
            while block == sorted(block):
                rng.shuffle(block)
            order = list(range(start)) + block + list(range(end, case.total))

            def perm(v):
                return tuple(v[o] for o in order)

            variant = build_instance(
                case.dims,
                [
                    [(perm(r.coeffs), r.rhs, r.strict) for r in lv.rows]
                    for lv in case.levels
                ],
                [perm(lv.objective) for lv in case.levels],
                case.eps,
            )
            report, other = solve(case), solve(variant)
            assert (other.status, other.value, other.attained) == (
                report.status, report.value, report.attained
            )
            if report.attained:
                attained += 1
                assert check_optimal_point(variant, perm(report.witness))
    assert attained > 0


# -- the eps-relaxed variant -------------------------------------------------------------


def test_eps_relaxes_follower_optimality():
    strict_inst = bilevel_example()
    relaxed = build_instance(
        (1, 1),
        [
            [],
            [
                ((-1, 1), 0),
                ((1, 0), 0),
                ((-1, 0), -1),
                ((0, 1), 0),
                ((0, -1), -1),
            ],
        ],
        [(0, -1), (0, 1)],
        eps=F(1, 4),
    )
    # (0, 1/4) is eps-optimal for the follower but not optimal
    assert not check_feasible_point(strict_inst, (0, F(1, 4)))
    assert check_feasible_point(relaxed, (0, F(1, 4)))
    assert not check_feasible_point(relaxed, (0, F(1, 2)))
    # leader profits from the relaxation
    assert solve(relaxed).value <= solve(strict_inst).value


def test_eps_monotone_for_bilevel():
    # nesting of the eps-feasible sets holds when only the last level's value
    # function enters the reformulation (k <= 2)
    rng = random.Random(321)
    base = bilevel_example()
    for eps_small, eps_big in [(F(0), F(1, 8)), (F(1, 8), F(1, 2))]:
        small = build_instance(
            base.dims,
            [[(r.coeffs, r.rhs, r.strict) for r in lv.rows] for lv in base.levels],
            [lv.objective for lv in base.levels],
            eps=eps_small,
        )
        big = build_instance(
            base.dims,
            [[(r.coeffs, r.rhs, r.strict) for r in lv.rows] for lv in base.levels],
            [lv.objective for lv in base.levels],
            eps=eps_big,
        )
        for _ in range(40):
            x = random_point(rng, 2, span=2, max_den=4)
            if check_feasible_point(small, x):
                assert check_feasible_point(big, x)
        assert solve(big).value <= solve(small).value


# -- strict input rows ----------------------------------------------------------------------


def test_strict_rows_carry_into_cells():
    inst = build_instance(
        (1, 1),
        [[], [((1, 0), 0, True), ((0, 1), 0), ((-1, 1), 0)]],
        [(0, 1), (0, 1)],
    )
    # follower: min x2 s.t. x2 >= x1 > 0, x2 >= 0  ->  v2(x1) = x1 on x1 > 0
    assert not check_feasible_point(inst, (0, 0))
    assert check_feasible_point(inst, (F(1, 2), F(1, 2)))
    report = solve(inst)
    assert report.status == FINITE
    assert report.value == ExtReal.of(0)
    assert not report.attained  # open set: infimum at the excluded boundary
