import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from klp import jsonio
from klp.cli import run
from klp.mlp import build_instance
from klp.oracle import buchheim_instance

F = Fraction


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def buchheim_file(tmp_path):
    # the fixture is generated from code so the demo and the solver share one source
    path = tmp_path / "buchheim.json"
    path.write_text(jsonio.dumps(jsonio.instance_to_obj(buchheim_instance())))
    return str(path)


@pytest.fixture
def bilevel_file(tmp_path):
    inst = build_instance(
        (1, 1),
        [
            [],
            [((-1, 1), 0), ((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)],
        ],
        [(0, -1), (0, 1)],
    )
    path = tmp_path / "bilevel.json"
    path.write_text(jsonio.dumps(jsonio.instance_to_obj(inst)))
    return str(path)


def test_solve_buchheim(capsys, buchheim_file):
    code, out = invoke(capsys, "solve", buchheim_file)
    assert code == 0
    assert out["status"] == "INFEASIBLE"
    assert out["value"] == "+inf"
    assert out["witness"] is None


def test_solve_bilevel(capsys, bilevel_file):
    code, out = invoke(capsys, "solve", bilevel_file)
    assert code == 0
    assert out == {
        "status": "FINITE",
        "value": "-1",
        "attained": True,
        "witness": ["1", "1"],
    }


def test_decide_val(capsys, bilevel_file):
    # negative rationals need the --t= form, as usual with argparse
    assert invoke(capsys, "decide-val", bilevel_file, "--t=-1")[1] == {"answer": True}
    assert invoke(capsys, "decide-val", bilevel_file, "--t=-3/2")[1] == {
        "answer": False
    }


def test_decide_unb_and_feasible(capsys, bilevel_file, buchheim_file):
    assert invoke(capsys, "decide-unb", bilevel_file)[1] == {"answer": False}
    assert invoke(capsys, "feasible", bilevel_file)[1] == {"answer": True}
    assert invoke(capsys, "feasible", buchheim_file)[1] == {"answer": False}


def test_check_point(capsys, bilevel_file):
    code, out = invoke(capsys, "check-point", bilevel_file, "--point", "1,1")
    assert out == {"feasible": True, "optimal": True}
    code, out = invoke(capsys, "check-point", bilevel_file, "--point", "1/2,1/2")
    assert out == {"feasible": True, "optimal": False}
    code, out = invoke(capsys, "check-point", bilevel_file, "--point", "1,1/2")
    assert out == {"feasible": False, "optimal": False}


def test_value_functions_dump(capsys, bilevel_file):
    code, out = invoke(capsys, "value-functions", bilevel_file)
    assert code == 0
    assert [entry["level"] for entry in out] == [2]
    cells = out[0]["function"]["cells"]
    assert any(cell["piece"] == "+inf" for cell in cells)
    assert any(
        isinstance(cell["piece"], dict) and cell["piece"]["c"] == ["1"]
        for cell in cells
    )


def test_transform_scale_identity_is_byte_identical(capsys, tmp_path):
    code = run(["gen", "--seed", "4", "--k", "2", "--dims", "1,1", "--rows", "1,2"])
    body = capsys.readouterr().out
    path = tmp_path / "base.json"
    path.write_text(body)
    code = run(["transform", str(path), "--op", "scale", "--lambda", "1/1"])
    assert capsys.readouterr().out == body


def test_transform_scale_and_forward(capsys, bilevel_file):
    code, out = invoke(capsys, "transform", bilevel_file, "--op", "scale", "--lambda", "2")
    assert code == 0
    rhs = [row["rhs"] for row in out["levels"][1]["rows"]]
    assert rhs == ["0", "0", "-2", "0", "-2"]
    code, out = invoke(capsys, "transform", bilevel_file, "--op", "forward")
    assert code == 0


def test_transform_gadget_then_decide_unb(capsys, tmp_path):
    neg = build_instance((1, 1), [[], [((1, 0), 0), ((-1, 0), -1)]], [(-1, 0), (0, 0)])
    path = tmp_path / "neg.json"
    path.write_text(jsonio.dumps(jsonio.instance_to_obj(neg)))
    code, out = invoke(capsys, "transform", str(path), "--op", "gadget")
    assert code == 0
    gadget_path = tmp_path / "gadget.json"
    gadget_path.write_text(jsonio.dumps(out))
    assert invoke(capsys, "decide-unb", str(gadget_path))[1] == {"answer": True}


def test_project_subcommand(capsys, tmp_path):
    poly = {
        "dim": 2,
        "weak": [[["1", "0"], "0"]],
        "strict": [[["-1", "1"], "0"]],
    }
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(poly))
    code, out = invoke(capsys, "project", str(path), "--keep", "2")
    assert code == 0
    assert out["dim"] == 1
    assert out["strict"] == [[["1"], "0"]]  # projection of {x>=0, y>x} is {y>0}


def test_demo_buchheim(capsys):
    code, out = invoke(capsys, "demo-buchheim", "--t", "1/2")
    assert code == 0
    assert out["exact"]["status"] == "INFEASIBLE"
    assert out["naive"]["certificate"] == ["0", "0", "0", "1"]
    assert out["naive"]["certificate_feasible"] is True
    assert out["mismatch"] is True


def test_gen_deterministic(capsys):
    args = ["gen", "--seed", "9", "--k", "2", "--dims", "1,2", "--rows", "1,1",
            "--bound", "3", "--require", "C1,C2"]
    run(args)
    first = capsys.readouterr().out
    run(args)
    second = capsys.readouterr().out
    assert first == second


def test_gen_without_a_nonempty_draw_exits_2(capsys):
    # 40 random rows over the 0/1 box leave it empty on every redraw
    code, out = invoke(
        capsys, "gen", "--seed", "0", "--k", "2", "--dims", "1,1", "--rows", "0,40",
        "--bound", "1", "--require", "C1,C2",
    )
    assert code == 2 and set(out) == {"error"}


def test_roundtrip_parse_serialize_parse(capsys):
    run(["gen", "--seed", "12", "--k", "3", "--dims", "1,1,1", "--rows", "1,1,2"])
    body = capsys.readouterr().out
    inst = jsonio.instance_from_obj(json.loads(body))
    again = jsonio.instance_from_obj(json.loads(jsonio.dumps(jsonio.instance_to_obj(inst))))
    assert inst == again


def test_error_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = invoke(capsys, "solve", str(bad))
    assert code == 2 and "error" in out

    missing_code, out = invoke(capsys, "solve", str(tmp_path / "nope.json"))
    assert missing_code == 2

    # lambda <= 0 is an input error
    good = tmp_path / "good.json"
    inst = build_instance((1,), [[((1,), 2)]], [(1,)])
    good.write_text(jsonio.dumps(jsonio.instance_to_obj(inst)))
    code, out = invoke(capsys, "transform", str(good), "--op", "scale", "--lambda", "0")
    assert code == 2 and "error" in out

    # gadget precondition violation
    upper_row = build_instance((1, 1), [[((1, 0), 0)], []], [(1, 0), (0, 1)])
    path = tmp_path / "upper.json"
    path.write_text(jsonio.dumps(jsonio.instance_to_obj(upper_row)))
    code, out = invoke(capsys, "transform", str(path), "--op", "gadget")
    assert code == 2 and "error" in out

    # dimension mismatch in check-point
    code, out = invoke(capsys, "check-point", str(good), "--point", "1,2")
    assert code == 2 and "error" in out


BOXED_ROW = {"coeffs": {"1": ["1"]}, "rhs": "0"}


@pytest.mark.parametrize(
    "doc",
    [
        # a level that is a list, not an object
        {"k": 1, "n": [1], "levels": [[1, 2]]},
        # a string flag would read as strict through truthiness
        {
            "k": 1,
            "n": [1],
            "levels": [
                {
                    "rows": [dict(BOXED_ROW, strict="false")],
                    "objective": {"1": ["1"]},
                }
            ],
        },
        # a fractional dimension would be truncated
        {"k": 1, "n": [1.9], "levels": [{"rows": [BOXED_ROW]}]},
        {"k": 1.0, "n": [1], "levels": [{"rows": [BOXED_ROW]}]},
        {"k": 1, "n": [1], "levels": [{"rows": 5}]},
        # true would read as the rational 1
        {"k": 1, "n": [1], "levels": [{"rows": [dict(BOXED_ROW, rhs=True)]}]},
        # a block under "01" would be dropped, leaving the row 0 >= 0
        {"k": 1, "n": [1], "levels": [{"rows": [{"coeffs": {"01": ["1"]}}]}]},
    ],
    ids=[
        "level-not-object", "strict-string", "n-float", "k-float", "rows-not-list",
        "rhs-bool", "level-key-leading-zero",
    ],
)
def test_malformed_instance_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = invoke(capsys, "solve", str(path))
    assert code == 2 and set(out) == {"error"}


@pytest.mark.parametrize(
    "doc",
    [{"dim": 1.9, "weak": [[["1"], "0"]]}, {"dim": 1, "weak": 5}],
    ids=["dim-float", "weak-not-list"],
)
def test_malformed_polyhedron_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(doc))
    code, out = invoke(capsys, "project", str(path), "--keep", "1")
    assert code == 2 and set(out) == {"error"}


def test_eps_field_roundtrips(capsys, tmp_path):
    inst = build_instance((1,), [[((1,), 0)]], [(1,)], eps=F(1, 3))
    path = tmp_path / "eps.json"
    path.write_text(jsonio.dumps(jsonio.instance_to_obj(inst)))
    parsed = jsonio.instance_from_obj(json.loads(path.read_text()))
    assert parsed.eps == F(1, 3)


def test_strict_rows_roundtrip():
    inst = build_instance((1,), [[((1,), 0, True)]], [(1,)])
    obj = jsonio.instance_to_obj(inst)
    assert obj["levels"][0]["rows"][0]["strict"] is True
    assert jsonio.instance_from_obj(obj) == inst


# -- totality: any instance document gives exit 0 or 2 and one JSON document --------


_rational = st.one_of(
    st.integers(-3, 3), st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 3))
)
_junk = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3), st.just("1/0"),
    st.just([]), st.just({}), st.integers(-2, 2),
)


@st.composite
def _instance_docs(draw):
    """A small valid instance document, half the time with one entry replaced
    by junk or one object key respelled."""
    k = draw(st.integers(1, 2))
    n = draw(st.lists(st.integers(1, 2), min_size=k, max_size=k))

    def blocks(first):
        return {
            str(level): [draw(_rational) for _ in range(n[level - 1])]
            for level in range(first, k + 1)
            if draw(st.booleans())
        }

    def row():
        out = {"coeffs": blocks(1), "rhs": draw(_rational)}
        if draw(st.booleans()):
            out["strict"] = True
        return out

    levels = [
        {"rows": [row() for _ in range(draw(st.integers(0, 3)))], "objective": blocks(li)}
        for li in range(1, k + 1)
    ]
    box = [{"k": k, "n": n, "levels": levels}]
    if draw(st.booleans()):
        return box[0]
    slots = []  # (container, key) of every entry, the document itself included

    def collect(node):
        pairs = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in list(pairs):
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                collect(value)

    collect(box)
    holder, key = draw(st.sampled_from(slots))
    if isinstance(holder, dict) and draw(st.booleans()):
        holder[draw(st.sampled_from(["01", "0", "3", "+1", "x"]))] = holder.pop(key)
    else:
        holder[key] = draw(_junk)
    return box[0]


_argument = st.one_of(_rational.map(str), st.sampled_from(["1/0", "x", ""]))
_command = st.one_of(
    st.tuples(st.sampled_from(["solve", "feasible", "decide-unb", "value-functions"])),
    st.tuples(st.just("decide-val"), _argument.map(lambda t: "--t=" + t)),
    st.tuples(
        st.just("check-point"),
        st.lists(_argument, min_size=1, max_size=3).map(lambda p: "--point=" + ",".join(p)),
    ),
    st.tuples(st.just("transform"), st.just("--op"), st.sampled_from(["forward", "gadget"])),
    st.tuples(
        st.just("transform"), st.just("--op=scale"), _argument.map(lambda t: "--lambda=" + t)
    ),
)


@settings(max_examples=250, deadline=None)
@given(doc=_instance_docs(), command=_command)
def test_cli_is_total_on_instance_documents(doc, command):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "doc.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run([command[0], str(path), *command[1:]])
    event(f"exit {code}")
    assert code in (0, 2)
    json.loads(out.getvalue())  # exactly one JSON document, nothing around it
