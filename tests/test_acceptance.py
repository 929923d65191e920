"""Acceptance suite.

Each test exercises one criterion end to end, asserts exact answers (no
tolerances anywhere: all arithmetic is rational), checks the stated wall-time
budget, and prints one PASS/FAIL line. Run with ``pytest -s`` to see the
lines as they complete.
"""

import functools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from fuel import random_genpoly, random_point, random_pwl
from independent_oracles import fiber_infimum, substituted_fiber

from klp.exactnum import zeros
from klp.genpoly import ExtReal
from klp.mlp import (
    FINITE,
    INFEASIBLE,
    MlpInstance,
    build_instance,
    check_feasible_point,
    check_optimal_point,
    solve,
)
from klp.oracle import (
    bilevel_basis_solve,
    buchheim_instance,
    naive_trilevel_demo,
    random_bilevel,
    random_instance,
    to_mlp,
)
from klp.pwl import lp_value_function, min_combine
from klp.transforms import forward_constraints, scale_rhs, unboundedness_gadget

F = Fraction


@contextmanager
def criterion(num, label, limit_seconds):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {num:>2} {label}: FAIL")
        raise
    elapsed = time.time() - start
    assert elapsed < limit_seconds, f"{label} took {elapsed:.1f}s (limit {limit_seconds}s)"
    print(f"criterion {num:>2} {label}: PASS ({elapsed:.1f}s)")


def sample_points(rng, inst, count, witness=None):
    points = []
    if witness is not None:
        points.append(witness)
        bump = tuple(q + F(1, 2) for q in witness)
        points.append(bump)
        points.append(tuple(q - F(1, 3) for q in witness))
    while len(points) < count:
        points.append(random_point(rng, inst.total, span=3, max_den=2))
    return points[:count]


# -- shared suite data (criterion 11 re-reads these) --------------------------------


_C1_SHAPES = [
    (2, (1, 2), (0, 3)),
    (2, (2, 2), (0, 4)),
    (2, (1, 4), (0, 4)),
    (3, (1, 1, 1), (0, 0, 3)),
    (3, (1, 1, 2), (0, 0, 4)),
    (3, (2, 1, 1), (0, 0, 4)),
    (3, (1, 2, 2), (0, 0, 4)),
    (3, (1, 2, 1), (0, 0, 3)),
]


@functools.cache
def homogeneity_results():
    """(instance, report, lam, scaled instance, scaled report) per case."""
    out = []
    for i in range(30):
        k, dims, rows = _C1_SHAPES[i % len(_C1_SHAPES)]
        inst = random_instance(1000 + i, k, dims, rows, 3, require=("C1",))
        report = solve(inst)
        for lam in (F(1, 2), F(2), F(3)):
            scaled = scale_rhs(inst, lam)
            out.append((inst, report, lam, scaled, solve(scaled)))
    return out


def make_forwardable(inst: MlpInstance) -> MlpInstance:
    """Zero every upper row's coefficients on later levels, so all upper rows
    qualify for forwarding."""
    level_rows = []
    for li, level in enumerate(inst.levels, start=1):
        cut = sum(inst.dims[:li])
        rows = []
        for r in level.rows:
            coeffs = r.coeffs if li == inst.k else r.coeffs[:cut] + zeros(inst.total - cut)
            rows.append((coeffs, r.rhs, r.strict))
        level_rows.append(rows)
    return build_instance(inst.dims, level_rows, [lv.objective for lv in inst.levels], inst.eps)


_FWD_SHAPES = [
    (2, (1, 1), (1, 2)),
    (2, (1, 2), (2, 2)),
    (2, (2, 1), (1, 3)),
    (3, (1, 1, 1), (1, 1, 2)),
    (3, (1, 1, 1), (2, 1, 1)),
    (3, (1, 1, 2), (1, 1, 2)),
]


@functools.cache
def forwarding_results():
    out = []
    for i in range(30):
        k, dims, rows = _FWD_SHAPES[i % len(_FWD_SHAPES)]
        raw = random_instance(2000 + i, k, dims, rows, 3)
        inst = make_forwardable(raw)
        forwarded = forward_constraints(inst)
        out.append((inst, solve(inst), forwarded, solve(forwarded)))
    return out


def gadget_bases():
    minus_one = build_instance(
        (1, 1), [[], [((1, 0), 0), ((-1, 0), -1)]], [(-1, 0), (0, 0)]
    )
    zero = build_instance(
        (1, 1), [[], [((1, 0), 0), ((-1, 0), -1)]], [(1, 0), (0, 0)]
    )
    half = build_instance(
        (1, 1), [[], [((1, 0), F(1, 2)), ((-1, 0), -1)]], [(1, 0), (0, 0)]
    )
    return [(minus_one, "UNBOUNDED", None), (zero, FINITE, F(0)), (half, FINITE, F(1, 2))]


@functools.cache
def gadget_results():
    out = []
    for base, status, value in gadget_bases():
        gadget = unboundedness_gadget(base)
        out.append((gadget, solve(gadget), status, value))
    return out


@functools.cache
def bilevel_results():
    rng = random.Random(60_000)
    out = []
    for _ in range(50):
        p = random_bilevel(rng)
        inst = to_mlp(p)
        out.append((p, inst, solve(inst), bilevel_basis_solve(p)))
    return out


# -- criteria -------------------------------------------------------------------------


def test_criterion_01_counterexample_exact_side():
    with criterion(1, "trilevel counterexample, exact side", 10):
        report = solve(buchheim_instance())
        assert report.status == INFEASIBLE


def test_criterion_02_counterexample_naive_side():
    with criterion(2, "trilevel counterexample, naive side", 10):
        for t in (F(0), F(1, 2), F(1)):
            demo = naive_trilevel_demo(t)
            assert demo.naive_status != INFEASIBLE
            assert demo.certificate == (F(0), F(0), F(0), F(1))
            assert demo.certificate_feasible
            assert demo.mismatch


def test_criterion_03_homogeneity_suite():
    with criterion(3, "homogeneity suite", 300):
        rng = random.Random(303)
        cases = homogeneity_results()
        assert len(cases) == 90  # 30 instances x 3 factors
        for inst, report, lam, scaled, scaled_report in cases:
            assert scaled_report.value == report.value.scaled(lam)
            for z in sample_points(rng, inst, 20, report.witness):
                lz = tuple(lam * q for q in z)
                assert check_feasible_point(inst, z) == check_feasible_point(scaled, lz)


def test_criterion_04_forwarding_suite():
    with criterion(4, "constraint-forwarding suite", 300):
        rng = random.Random(404)
        cases = forwarding_results()
        assert len(cases) == 30
        for inst, report, forwarded, forwarded_report in cases:
            assert any(lv.rows for lv in inst.levels[:-1])  # really had upper rows
            assert not any(lv.rows for lv in forwarded.levels[:-1])
            assert forwarded_report.value == report.value
            for z in sample_points(rng, inst, 20, report.witness):
                assert check_feasible_point(inst, z) == check_feasible_point(forwarded, z)


def test_criterion_05_unboundedness_gadget():
    with criterion(5, "unboundedness gadget", 60):
        for gadget, report, status, value in gadget_results():
            assert report.status == status
            if value is not None:
                assert report.value == ExtReal.of(value)


def test_criterion_06_bilevel_oracle_equivalence():
    with criterion(6, "bilevel oracle equivalence", 600):
        cases = bilevel_results()
        assert len(cases) == 50
        infeasible = 0
        for p, inst, fast, slow in cases:
            assert fast.status == slow.status
            assert fast.value == slow.value
            infeasible += fast.status == INFEASIBLE
        assert 0 < infeasible < 50  # both verdicts exercised


def test_criterion_07_projection_fiber_soundness():
    with criterion(7, "projection fiber soundness", 120):
        rng = random.Random(707)
        for _ in range(200):
            dim = rng.randint(2, 4)
            poly = random_genpoly(rng, dim, max_rows=6, bound=3)
            size = rng.randint(1, dim - 1)
            keep = sorted(rng.sample(range(dim), size))
            projected = poly.project(keep)
            point = random_point(rng, size)
            fiber = substituted_fiber(poly, keep, point)
            assert projected.contains(point) == (not fiber.is_empty())


def test_criterion_08_complement_partition():
    with criterion(8, "complement partition", 120):
        rng = random.Random(808)
        for _ in range(100):
            dim = rng.randint(1, 3)
            poly = random_genpoly(rng, dim, max_rows=5, bound=3)
            cells = poly.complement_cells()
            for _ in range(100):
                x = random_point(rng, dim)
                hits = int(poly.contains(x)) + sum(c.contains(x) for c in cells)
                assert hits == 1


def test_criterion_09_min_combination():
    with criterion(9, "piecewise-linear min combination", 180):
        rng = random.Random(909)
        ties_seen = 0
        for _ in range(30):
            dim = rng.randint(1, 2)
            funcs = [random_pwl(rng, dim) for _ in range(3)]
            combined = min_combine(funcs)
            for _ in range(100):
                x = random_point(rng, dim)
                values = [f.eval(x) for f in funcs]
                low = min(values)
                assert combined.eval(x) == low
                attaining = [i for i, v in enumerate(values) if v == low]
                if len(attaining) > 1:
                    ties_seen += 1
                    winner = next(
                        piece for region, piece in combined.cells if region.contains(x)
                    )
                    first = funcs[attaining[0]]
                    expected = next(
                        piece for region, piece in first.cells if region.contains(x)
                    )
                    assert winner == expected
        assert ties_seen > 0


def test_criterion_10_parametric_value_function():
    with criterion(10, "parametric LP value function", 300):
        rng = random.Random(1010)
        cases = []
        for _ in range(30):
            cases.append(1)
        for _ in range(10):
            cases.append(2)
        for n_cells in cases:
            n_x = rng.randint(1, 2)
            n_y = rng.randint(1, 2)
            cells = [
                random_genpoly(rng, n_x + n_y, max_rows=4, bound=2)
                for _ in range(n_cells)
            ]
            cost = tuple(F(rng.randint(-2, 2)) for _ in range(n_x))
            func = lp_value_function(cells, n_x, cost)
            for _ in range(50):
                y = random_point(rng, n_y, span=4, max_den=2)
                assert func.eval(y) == fiber_infimum(cells, n_x, cost, y)


def test_criterion_11_witness_soundness():
    with criterion(11, "end-to-end witness soundness", 600):
        reports = []
        for inst, report, lam, scaled, scaled_report in homogeneity_results():
            reports.append((inst, report))
            reports.append((scaled, scaled_report))
        for inst, report, forwarded, forwarded_report in forwarding_results():
            reports.append((inst, report))
            reports.append((forwarded, forwarded_report))
        for gadget, report, _, _ in gadget_results():
            reports.append((gadget, report))
        for _, inst, fast, _ in bilevel_results():
            reports.append((inst, fast))
        attained = 0
        for inst, report in reports:
            if report.status == FINITE and report.attained:
                attained += 1
                assert report.witness is not None
                assert all(isinstance(q, Fraction) for q in report.witness)
                assert check_optimal_point(inst, report.witness)
        assert attained > 0
