import random
from fractions import Fraction

import pytest
from fuel import random_point

from klp.genpoly import NEG_INF, ExtReal
from klp.mlp import build_instance, check_feasible_point, solve
from klp.oracle import random_instance
from klp.transforms import (
    check_conditions,
    forward_constraints,
    nonforwardable_rows,
    scale_rhs,
    unboundedness_gadget,
)

F = Fraction


def c1_base(value: str):
    """Handcrafted 2-level bases satisfying C1 with known optimal values."""
    if value == "-1":
        return build_instance(
            (1, 1), [[], [((1, 0), 0), ((-1, 0), -1)]], [(-1, 0), (0, 0)]
        )
    if value == "0":
        return build_instance(
            (1, 1), [[], [((1, 0), 0), ((-1, 0), -1)]], [(1, 0), (0, 0)]
        )
    if value == "1/2":
        return build_instance(
            (1, 1), [[], [((1, 0), F(1, 2)), ((-1, 0), -1)]], [(1, 0), (0, 0)]
        )
    raise ValueError(value)


def bilevel_example():
    return build_instance(
        (1, 1),
        [
            [],
            [((-1, 1), 0), ((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)],
        ],
        [(0, -1), (0, 1)],
    )


# -- scale_rhs ------------------------------------------------------------------


def test_scale_identity():
    inst = bilevel_example()
    assert scale_rhs(inst, 1) == inst


def test_scale_rejects_nonpositive():
    with pytest.raises(ValueError):
        scale_rhs(bilevel_example(), 0)
    with pytest.raises(ValueError):
        scale_rhs(bilevel_example(), F(-1, 2))


def test_scale_membership_biconditional():
    inst = bilevel_example()
    doubled = scale_rhs(inst, 2)
    rng = random.Random(17)
    for _ in range(50):
        z = random_point(rng, 2, span=2, max_den=3)
        scaled_z = tuple(2 * q for q in z)
        assert check_feasible_point(inst, z) == check_feasible_point(doubled, scaled_z)
    assert check_feasible_point(inst, (1, 1))
    assert check_feasible_point(doubled, (2, 2))
    # outside the original box but inside the scaled one
    assert not check_feasible_point(inst, (F(3, 2), F(3, 2)))
    assert check_feasible_point(doubled, (F(3, 2), F(3, 2)))


def test_scale_value():
    inst = bilevel_example()
    assert solve(scale_rhs(inst, 2)).value == ExtReal.of(-2)
    assert solve(inst).value == ExtReal.of(-1)


def test_scale_roundtrip_is_identity():
    inst = bilevel_example()
    assert scale_rhs(scale_rhs(inst, F(7, 3)), F(3, 7)) == inst


def test_scale_preserves_infinite_values():
    unbounded = build_instance((1, 1), [[], [((1, 0), 0)]], [(-1, 0), (0, 0)])
    assert solve(unbounded).value == NEG_INF
    assert solve(scale_rhs(unbounded, 3)).value == NEG_INF


# -- forward_constraints ------------------------------------------------------------


def test_forward_noop_on_c1():
    inst = c1_base("-1")
    assert forward_constraints(inst) == inst


def test_forward_moves_leader_row():
    inst = build_instance(
        (1, 1),
        [[((1, 0), 1)], [((0, 1), 0), ((0, -1), -1)]],
        [(1, 1), (0, 1)],
    )
    out = forward_constraints(inst)
    assert len(out.levels[0].rows) == 0
    assert len(out.levels[1].rows) == 3
    # forwarded rows precede the original last-level rows
    assert out.levels[1].rows[0].coeffs == (F(1), F(0))
    assert solve(out).value == solve(inst).value
    assert check_conditions(out).c1


def test_forward_idempotent_and_preserves_membership():
    rng = random.Random(42)
    inst = build_instance(
        (1, 1, 1),
        [
            [((1, 0, 0), 0)],
            [((2, 1, 0), -1)],
            [((0, 0, 1), 0), ((0, -1, 0), -2), ((0, 1, 0), -2)],
        ],
        [(1, 0, 1), (0, 1, -1), (0, 0, 1)],
    )
    once = forward_constraints(inst)
    assert forward_constraints(once) == once
    assert solve(once).value == solve(inst).value
    for _ in range(40):
        x = random_point(rng, 3, span=3, max_den=2)
        assert check_feasible_point(inst, x) == check_feasible_point(once, x)


def test_rows_touching_later_variables_stay():
    inst = build_instance(
        (1, 1),
        [[((1, 1), 0)], [((0, 1), 0)]],
        [(1, 0), (0, 1)],
    )
    out = forward_constraints(inst)
    assert len(out.levels[0].rows) == 1
    assert nonforwardable_rows(inst) == ((1, 0),)
    assert nonforwardable_rows(out) == ((1, 0),)


# -- unboundedness_gadget --------------------------------------------------------------


@pytest.mark.parametrize(
    "base_value, status, value",
    [("-1", "UNBOUNDED", None), ("0", "FINITE", F(0)), ("1/2", "FINITE", F(1, 2))],
)
def test_gadget_value_contract(base_value, status, value):
    out = unboundedness_gadget(c1_base(base_value))
    report = solve(out)
    assert report.status == status
    if value is not None:
        assert report.value == ExtReal.of(value)


def test_gadget_requires_c1():
    bad = build_instance(
        (1, 1), [[((1, 0), 0)], [((0, 1), 0)]], [(1, 0), (0, 1)]
    )
    with pytest.raises(ValueError):
        unboundedness_gadget(bad)


def test_gadget_output_satisfies_c1():
    out = unboundedness_gadget(c1_base("1/2"))
    assert check_conditions(out).c1
    # the scaling variable joins the leader's block with zero objective cost
    assert out.dims == (2, 1)
    assert out.levels[0].objective[1] == 0


def test_gadget_bound_row_was_forwarded():
    out = unboundedness_gadget(c1_base("0"))
    assert not out.levels[0].rows
    bound_rows = [r for r in out.levels[1].rows if r.coeffs == (F(0), F(1), F(0))]
    assert bound_rows and bound_rows[0].rhs == 1


def test_gadget_agreement_with_base_negativity():
    for name, expect in [("-1", True), ("0", False), ("1/2", False)]:
        base = c1_base(name)
        gadget = unboundedness_gadget(base)
        assert (solve(gadget).status == "UNBOUNDED") == expect
        assert (solve(base).value < ExtReal.of(0)) == expect


# -- check_conditions ---------------------------------------------------------------------


def test_conditions_on_boxed_bilevel():
    inst = build_instance(
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
    report = check_conditions(inst)
    assert report.c1 and report.c2 and report.c3
    assert report.violations == ()


def test_conditions_flag_leader_row():
    inst = build_instance(
        (1, 1), [[((1, 0), 0)], [((0, 1), 0)]], [(1, 0), (0, 1)]
    )
    report = check_conditions(inst)
    assert not report.c1
    assert any("level 1" in v for v in report.violations)


def test_conditions_flag_oversized_entry():
    inst = build_instance((1, 1), [[], [((3, 0), 0)]], [(1, 0), (0, 1)])
    report = check_conditions(inst)
    assert not report.c3  # n = 2, entry 3 out of range
    assert not report.c2


def test_conditions_generated_instances():
    inst = random_instance(7, 2, (1, 2), (1, 2), 3, require=("C1", "C2", "C3"))
    report = check_conditions(inst)
    assert report.c1 and report.c2 and report.c3
