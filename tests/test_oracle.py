import math
import random
from fractions import Fraction

import pytest

from klp.exactnum import mat, vec
from klp.genpoly import ExtReal
from klp.mlp import INFEASIBLE, build_instance, check_feasible_point, solve
from klp.oracle import (
    StandardBilevel,
    bilevel_basis_solve,
    buchheim_instance,
    naive_buchheim_bilevel,
    naive_trilevel_demo,
    random_bilevel,
    random_instance,
    to_mlp,
)
from klp.transforms import check_conditions

F = Fraction


def bilevel_example_standard_form() -> StandardBilevel:
    """Leader min -x2 with 0 <= x1 <= 1; follower min x2 s.t. x2 >= x1,
    0 <= x2 <= 1, written with slacks: leader vars (x1, u), follower vars
    (x2, s1, s2)."""
    return StandardBilevel(
        a11=mat([[1, 1]]),
        a12=mat([[0, 0, 0]]),
        b1=vec([1]),
        a21=mat([[-1, 0], [0, 0]]),
        a22=mat([[1, -1, 0], [1, 0, 1]]),
        b2=vec([0, 1]),
        c11=vec([0, 0]),
        c12=vec([-1, 0, 0]),
        c22=vec([1, 0, 0]),
    )


def test_standard_bilevel_rejects_rank_deficiency():
    with pytest.raises(ValueError):
        StandardBilevel(
            a11=mat([]) or (),
            a12=(),
            b1=(),
            a21=mat([[0], [0]]),
            a22=mat([[1, 1], [1, 1]]),
            b2=vec([0, 0]),
            c11=vec([1]),
            c12=vec([0, 0]),
            c22=vec([1, 1]),
        )


def test_basis_solve_bilevel_example():
    result = bilevel_basis_solve(bilevel_example_standard_form())
    assert result.status == "FINITE"
    assert result.value == ExtReal.of(-1)
    assert result.attained
    # witness: x1 = 1, u = 0, x2 = 1, s1 = 0, s2 = 0
    assert result.witness == vec([1, 0, 1, 0, 0])
    assert result.bases_total == math.comb(3, 2)


def test_basis_solve_infeasible_leader_row():
    p = StandardBilevel(
        a11=mat([[0, 0]]),
        a12=mat([[0, 0, 0]]),
        b1=vec([1]),  # 0 = 1: no leader-feasible point
        a21=mat([[-1, 0], [0, 0]]),
        a22=mat([[1, -1, 0], [1, 0, 1]]),
        b2=vec([0, 1]),
        c11=vec([0, 0]),
        c12=vec([-1, 0, 0]),
        c22=vec([1, 0, 0]),
    )
    assert bilevel_basis_solve(p).status == INFEASIBLE


def test_basis_enumeration_counts():
    rng = random.Random(1)
    for _ in range(6):
        p = random_bilevel(rng)
        result = bilevel_basis_solve(p)
        assert result.bases_total == math.comb(p.n2, p.m2)
        assert result.bases_singular + result.bases_dual_feasible <= result.bases_total


def test_oracle_agrees_with_solver():
    rng = random.Random(2718)
    for _ in range(15):
        p = random_bilevel(rng)
        fast = solve(to_mlp(p))
        slow = bilevel_basis_solve(p)
        assert fast.status == slow.status
        assert fast.value == slow.value


# -- the trilevel counterexample demo -----------------------------------------------


def test_demo_mismatch_for_zero_threshold():
    demo = naive_trilevel_demo(0)
    assert demo.exact.status == INFEASIBLE
    assert demo.naive_status != INFEASIBLE
    assert demo.certificate == vec([0, 0, 0, 1])
    assert demo.certificate_feasible
    assert demo.mismatch


@pytest.mark.parametrize("t", ["0", "1/2", "1", "7/3"])
def test_demo_mismatch_for_every_nonnegative_threshold(t):
    demo = naive_trilevel_demo(F(t))
    assert demo.mismatch


def test_demo_rejects_negative_threshold():
    with pytest.raises(ValueError):
        naive_trilevel_demo(-1)


def test_naive_reformulation_contains_certificate():
    naive = naive_buchheim_bilevel(1)
    assert check_feasible_point(naive, (0, 0, 0, 1))


def test_exact_side_alone_is_infeasible():
    assert solve(buchheim_instance()).status == INFEASIBLE


# -- random instance generator -----------------------------------------------------


def test_random_instance_deterministic():
    a = random_instance(11, 2, (1, 2), (1, 2), 3)
    b = random_instance(11, 2, (1, 2), (1, 2), 3)
    assert a == b


def test_random_instance_honors_conditions():
    inst = random_instance(3, 2, (1, 1), (2, 2), 2, require=("C1", "C2"))
    report = check_conditions(inst)
    assert report.c1 and report.c2


def test_random_instance_c3_by_construction():
    inst = random_instance(5, 2, (2, 2), (1, 1), 4, require=("C3",))
    assert check_conditions(inst).c3


def test_random_instance_rejects_impossible_requirements():
    with pytest.raises(ValueError):
        random_instance(0, 2, (1, 1), (1, 1), 5, require=("C3",))  # bound > n
    with pytest.raises(ValueError):
        random_instance(0, 1, (1,), (1,), 2, require=("C9",))
    with pytest.raises(ValueError):
        random_instance(0, 2, (1,), (1, 1), 2)


def test_random_instance_c2_has_nonempty_last_level():
    from klp.mlp import feasible_set

    for seed in range(5):
        inst = random_instance(seed, 2, (1, 1), (1, 1), 3, require=("C2",))
        assert not feasible_set(inst, inst.k).cells[0].is_empty()


def test_random_instance_gives_up_after_100_empty_draws(monkeypatch):
    from klp import oracle

    empty = build_instance((1, 1), [[], [((0, 0), 1)]], [(1, 0), (0, 1)])
    draws = []

    def draw(rng, dims, counts, bound, boxes):
        draws.append(boxes)
        return empty

    monkeypatch.setattr(oracle, "_draw_instance", draw)
    with pytest.raises(ValueError):
        random_instance(0, 2, (1, 1), (0, 1), 1, require=("C1", "C2"))
    assert draws == [True] * 100
