import json
import math
import re
import sys
import time
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest

from ratsep import (
    Certificate,
    GridSpec,
    NotPointedError,
    SeparationBugError,
    Surd,
    Vector,
    VPolyhedron,
    verify_certificate,
)
from ratsep import approximation, cli, linalg, separation, sets
from ratsep import serialization as ser
from ratsep.cli import main
from helpers import facet_membership, objective_negating_pivot

TRIANGLE = VPolyhedron((Vector([0, 0]), Vector([1, 0]), Vector([0, 1])))
UNIT_SQUARE = VPolyhedron(
    (Vector([0, 0]), Vector([1, 0]), Vector([1, 1]), Vector([0, 1]))
)


def write_instance(tmp_path, name, inst):
    path = tmp_path / name
    path.write_text(ser.dumps(ser.instance_to_json(inst)), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_separate_round_trip(tmp_path, capsys):
    inst = ser.Instance(polyhedron=TRIANGLE, point=Vector([1, 1]))
    path = write_instance(tmp_path, "tri.json", inst)
    code, out, _ = run(capsys, ["separate", "--instance", path])
    assert code == 0
    payload = json.loads(out)
    cert = ser.parse_certificate(payload["certificate"])
    assert verify_certificate(TRIANGLE, Vector([1, 1]), cert)
    trace = ser.parse_trace(payload["trace"])
    assert trace.z_tilde == Vector([F(1, 2), F(1, 2)])


README_TRIANGLE = """{
  "set": {
    "dim": 2,
    "k": 2,
    "vertices": [["0/1", "0/1"], [{"r": "0/1", "s": "1/1", "k": 2}, "0/1"], ["0/1", "1/1"]],
    "rays": []
  },
  "point": ["3/2", "3/2"],
  "options": {"budget": 8, "grid": {"min": ["-1", "-1"], "max": ["2", "2"], "step": "1/20"}}
}
"""

README_TRIANGLE_SEPARATE = (
    '{"certificate":{"a":["506/915","575/732"],"beta":"20447/14640"},'
    '"trace":{"M":"1/1","a":["506/915","575/732"],"alpha":"119/288",'
    '"ball_center":[{"k":2,"r":"23/61","s":"23/183"},{"k":2,"r":"46/183","s":"23/61"}],'
    '"ball_radius":"595/11712","beta":"20447/14640","d":["0/1","0/1"],'
    '"d_bar":["0/1","0/1"],"delta_hat":"5/12","eps":"1/1","eps_bar":"119/288",'
    '"lambda":"15/61","y_bar":[{"k":2,"r":"1/2","s":"1/6"},{"k":2,"r":"1/3","s":"1/2"}],'
    '"z_tilde":[{"k":2,"r":"1/1","s":"-1/6"},{"k":2,"r":"7/6","s":"-1/2"}]}}\n'
)


def test_separate_readme_triangle_golden_bytes(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(README_TRIANGLE, encoding="utf-8")
    code, out, _ = run(capsys, ["separate", "--instance", str(path)])
    assert code == 0
    assert out == README_TRIANGLE_SEPARATE


def test_readme_instance_parses_and_separates(tmp_path, capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```json\n(.*?)```", text, flags=re.S)
    inst = ser.parse_instance(json.loads(block))
    path = tmp_path / "tri.json"
    path.write_text(block, encoding="utf-8")
    code, out, err = run(capsys, ["separate", "--instance", str(path)])
    assert code == 0 and err == ""
    cert = ser.parse_certificate(json.loads(out)["certificate"])
    assert verify_certificate(inst.polyhedron, inst.point, cert)


def test_misspelled_option_exit_1(tmp_path, capsys):
    # {"maxden": 4} would otherwise skip the brute-force cross-check
    instance = {**json.loads(README_TRIANGLE), "options": {"maxden": 4}}
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    code, out, err = run(capsys, ["separate", "--instance", str(path)])
    assert code == 1 and out == ""
    assert "unknown options fields: ['maxden']" in err


def test_separate_point_flag_overrides(tmp_path, capsys):
    inst = ser.Instance(polyhedron=TRIANGLE, point=Vector([F(1, 4), F(1, 4)]))
    path = write_instance(tmp_path, "tri.json", inst)
    code, out, _ = run(capsys, ["separate", "--instance", path, "--point", '["2","2"]'])
    assert code == 0
    cert = ser.parse_certificate(json.loads(out)["certificate"])
    assert verify_certificate(TRIANGLE, Vector([2, 2]), cert)


def test_separate_with_oracle_cross_check(tmp_path, capsys):
    inst = ser.Instance(polyhedron=TRIANGLE, point=Vector([1, 1]))
    path = write_instance(tmp_path, "tri.json", inst)
    code, out, _ = run(capsys, ["separate", "--instance", path, "--max-den", "4"])
    assert code == 0
    assert set(json.loads(out)) == {"certificate", "trace"}


def test_separate_max_den_rejects_pipeline_certificate_that_fails(
    tmp_path, capsys, monkeypatch
):
    inst = ser.Instance(polyhedron=TRIANGLE, point=Vector([1, 1]))
    path = write_instance(tmp_path, "tri.json", inst)
    real_separate = cli.separate

    def non_separating(X, y):
        _, trace = real_separate(X, y)
        return Certificate(Vector([1, 1]), F(100)), trace

    monkeypatch.setattr(cli, "separate", non_separating)
    code, out, err = run(capsys, ["separate", "--instance", path, "--max-den", "4"])
    assert code == 3
    assert json.loads(out) == {
        "error": "internal: SeparationBugError: pipeline certificate failed verification"
    }
    assert "error: internal: pipeline certificate failed verification" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["separate", "--max-den", "0"],
        ["separate", "--max-den", "-2"],
        ["approximate", "--budget", "0"],
    ],
)
def test_counts_below_one_exit_1(tmp_path, capsys, argv):
    inst = ser.Instance(
        polyhedron=TRIANGLE,
        point=Vector([1, 1]),
        probes=(Vector([2, 2]),),
        options=ser.InstanceOptions(grid=GridSpec((0, 0), (1, 1), F(1, 2))),
    )
    path = write_instance(tmp_path, "tri.json", inst)
    code, out, err = run(capsys, argv + ["--instance", path])
    assert code == 1
    assert out == ""
    assert "must be a positive integer" in err


def test_internal_error_exit_3_without_traceback(tmp_path, capsys, monkeypatch):
    def broken(X, y):
        raise SeparationBugError("strict separation inequality failed")

    monkeypatch.setattr(cli, "separate", broken)
    inst = ser.Instance(polyhedron=TRIANGLE, point=Vector([1, 1]))
    path = write_instance(tmp_path, "tri.json", inst)
    code, out, err = run(capsys, ["separate", "--instance", path])
    assert code == 3
    assert out == '{"error":"internal: SeparationBugError: strict separation inequality failed"}\n'
    assert err == "error: internal: strict separation inequality failed\n"


QUADRANT = VPolyhedron((Vector([0, 0]),), (Vector([1, 0]), Vector([0, 1])))


def _raising(exc):
    def step(*args, **kwargs):
        raise exc

    return step


@pytest.mark.parametrize(
    "step, exc",
    [
        ("bound_support_on_ball", ValueError("ball d + eps*B is not inside the barrier cone")),
        ("compute_wedge_parameters", ValueError("residual is zero: the query point lies in the set")),
        ("find_barrier_direction", NotPointedError("ray cone admits no strictly separating direction")),
    ],
)
def test_value_error_after_validation_exits_3(tmp_path, capsys, monkeypatch, step, exc):
    # a step past validation that rejects its input is a program fault,
    # not malformed input: exit 3 with the JSON error body, not exit 1
    monkeypatch.setattr(separation, step, _raising(exc))
    inst = ser.Instance(polyhedron=QUADRANT, point=Vector([-1, -2]))
    path = write_instance(tmp_path, "quadrant.json", inst)
    code, out, err = run(capsys, ["separate", "--instance", path])
    message = f"a step after validation raised {type(exc).__name__}: {exc}"
    assert code == 3
    assert out == ser.dumps({"error": f"internal: SeparationBugError: {message}"})
    assert err == f"error: internal: {message}\n"


def test_margin_lp_fault_exits_3(tmp_path, capsys, monkeypatch):
    # validation solves the margin LP, which is feasible and bounded, so
    # a ValueError from the simplex is a program fault too: exit 3
    exc = ValueError("simplex_max needs b_ub >= 0, got -1")
    monkeypatch.setattr(sets, "simplex_max", _raising(exc))
    inst = ser.Instance(polyhedron=QUADRANT, point=Vector([-1, -2]))
    path = write_instance(tmp_path, "quadrant.json", inst)
    code, out, err = run(capsys, ["separate", "--instance", path])
    message = f"the margin LP raised ValueError: {exc}"
    assert code == 3
    assert out == ser.dumps({"error": f"internal: SeparationBugError: {message}"})
    assert err == f"error: internal: {message}\n"


def test_margin_lp_past_its_step_bound_exits_3(tmp_path, capsys, monkeypatch):
    # a simplex that runs past its bound on steps, here one step for an LP
    # that needs a pivot, ends as an internal error, not in a hang
    monkeypatch.setattr(linalg, "comb", lambda a, b: 1)
    inst = ser.Instance(polyhedron=QUADRANT, point=Vector([-1, -2]))
    path = write_instance(tmp_path, "quadrant.json", inst)
    code, out, err = run(capsys, ["separate", "--instance", path])
    message = "the margin LP raised SeparationBugError: the margin LP exceeded its bound of 1 simplex steps"
    assert code == 3
    assert out == ser.dumps({"error": f"internal: SeparationBugError: {message}"})
    assert err == f"error: internal: {message}\n"


def test_margin_lp_revisiting_a_basis_exits_3(tmp_path, capsys, monkeypatch):
    # a pivot fault that makes the simplex cycle ends at its first repeated
    # basis as an internal error, not after its bound of 462 steps
    calls = []
    monkeypatch.setattr(linalg, "_pivot", objective_negating_pivot(calls))
    inst = ser.Instance(polyhedron=QUADRANT, point=Vector([-1, -2]))
    path = write_instance(tmp_path, "quadrant.json", inst)
    code, out, err = run(capsys, ["separate", "--instance", path])
    message = "the margin LP raised SeparationBugError: the margin LP revisited a basis at step 3"
    assert code == 3
    assert out == ser.dumps({"error": f"internal: SeparationBugError: {message}"})
    assert err == f"error: internal: {message}\n"
    assert len(calls) == 3


def test_projection_past_its_cycle_bound_exits_3(tmp_path, capsys, monkeypatch):
    # a fault in the exact projection, here an entering generator that
    # leaves at once, ends at the bound on its cycles as an internal error
    minor = sets._minor_cycles

    def stuck(y, gens, nv, weights):
        return minor(y, gens, nv, {i: w for i, w in weights.items() if w.sign() > 0})

    monkeypatch.setattr(sets, "_minor_cycles", stuck)
    inst = ser.Instance(polyhedron=TRIANGLE, point=Vector([1, 1]))
    path = write_instance(tmp_path, "tri.json", inst)
    code, out, err = run(capsys, ["separate", "--instance", path])
    message = "the projection exceeded its bound of 7 major cycles"
    assert code == 3
    assert out == ser.dumps({"error": f"internal: SeparationBugError: {message}"})
    assert err == f"error: internal: {message}\n"


def test_unexpected_exception_exit_3_without_traceback(tmp_path, capsys, monkeypatch):
    def broken(X, y):
        return 1 / 0

    monkeypatch.setattr(cli, "separate", broken)
    inst = ser.Instance(polyhedron=TRIANGLE, point=Vector([1, 1]))
    path = write_instance(tmp_path, "tri.json", inst)
    code, out, err = run(capsys, ["separate", "--instance", path])
    assert code == 3
    assert out == '{"error":"internal: ZeroDivisionError: division by zero"}\n'
    assert err == "error: internal: ZeroDivisionError: division by zero\n"


def test_runtime_error_exit_3_writes_a_json_error_body(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("handler state lost")

    monkeypatch.setitem(cli._COMMANDS, "verify", broken)
    inst = ser.Instance(polyhedron=TRIANGLE, point=Vector([1, 1]))
    path = write_instance(tmp_path, "tri.json", inst)
    code, out, err = run(capsys, ["verify", "--instance", path])
    assert code == 3
    assert out == ser.dumps({"error": "internal: RuntimeError: handler state lost"})
    assert err == "error: internal: RuntimeError: handler state lost\n"


def test_plot_to_an_unwritable_path_exit_1(tmp_path, capsys):
    inst = ser.Instance(polyhedron=TRIANGLE, point=Vector([1, 1]))
    path = write_instance(tmp_path, "tri.json", inst)
    out_path = tmp_path / "missing" / "plot.svg"
    code, out, err = run(capsys, ["plot", "--instance", path, "--out", str(out_path)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")


def test_separate_interior_point_exit_2(tmp_path, capsys):
    inst = ser.Instance(polyhedron=UNIT_SQUARE, point=Vector([F(1, 2), F(1, 2)]))
    path = write_instance(tmp_path, "sq.json", inst)
    code, out, err = run(capsys, ["separate", "--instance", path])
    assert code == 2
    assert "point inside set" in err


def test_separate_non_pointed_exit_2(tmp_path, capsys):
    line = VPolyhedron((Vector([0, 0]),), (Vector([1, 0]), Vector([-1, 0])))
    path = write_instance(tmp_path, "line.json", ser.Instance(polyhedron=line, point=Vector([0, 2])))
    code, _, err = run(capsys, ["separate", "--instance", path])
    assert code == 2
    assert "pointed" in err


def test_verify_true_and_false(tmp_path, capsys):
    inst = ser.Instance(
        polyhedron=TRIANGLE,
        point=Vector([1, 1]),
        certificate=Certificate(Vector([1, 1]), F(3, 2)),
    )
    path = write_instance(tmp_path, "tri.json", inst)
    code, out, _ = run(capsys, ["verify", "--instance", path])
    assert code == 0
    assert json.loads(out) == {"valid": True}

    cert_path = tmp_path / "cert.json"
    cert_path.write_text(
        ser.dumps(ser.certificate_to_json(Certificate(Vector([1, 1]), F(2)))),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["verify", "--instance", path, "--certificate", str(cert_path)])
    assert code == 0
    assert json.loads(out) == {"valid": False}


def test_approximate(tmp_path, capsys):
    inst = ser.Instance(
        polyhedron=UNIT_SQUARE,
        probes=(Vector([2, 0]), Vector([0, 2]), Vector([F(1, 2), F(1, 2)])),
        options=ser.InstanceOptions(
            grid=ser.GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 2))
        ),
    )
    path = write_instance(tmp_path, "sq.json", inst)
    code, out, _ = run(capsys, ["approximate", "--instance", path, "--budget", "4"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cuts"]) == 2
    assert ser.parse_fraction(payload["excess"]) < F(40, 49)


def test_approximate_needs_grid(tmp_path, capsys):
    inst = ser.Instance(polyhedron=UNIT_SQUARE, probes=(Vector([2, 0]),))
    path = write_instance(tmp_path, "sq.json", inst)
    code, _, err = run(capsys, ["approximate", "--instance", path])
    assert code == 1
    assert "grid" in err


def test_counterexample(tmp_path, capsys):
    code, out, _ = run(
        capsys, ["counterexample", "--point", '["1",{"r":"0","s":"1","k":2}]']
    )
    assert code == 0
    assert json.loads(out) == {"rational_direction": None}

    code, out, _ = run(
        capsys,
        ["counterexample", "--point", '[{"r":"0","s":"1","k":2},{"r":"0","s":"1","k":2}]'],
    )
    assert code == 0
    assert json.loads(out) == {"rational_direction": ["1/1", "1/1"]}

    # with no --point, the instance's point (3/2, 3/2)
    path = tmp_path / "tri.json"
    path.write_text(README_TRIANGLE, encoding="utf-8")
    code, out, _ = run(capsys, ["counterexample", "--instance", str(path)])
    assert code == 0
    assert json.loads(out) == {"rational_direction": ["1/1", "1/1"]}


def test_plot(tmp_path, capsys):
    inst = ser.Instance(polyhedron=TRIANGLE, point=Vector([1, 1]))
    path = write_instance(tmp_path, "tri.json", inst)
    cuts_path = tmp_path / "cuts.json"
    cuts_path.write_text(
        ser.dumps({"cuts": [ser.certificate_to_json(Certificate(Vector([1, 1]), F(3, 2)))]}),
        encoding="utf-8",
    )
    out_path = tmp_path / "plot.svg"
    code, out, _ = run(
        capsys,
        ["plot", "--instance", path, "--cuts", str(cuts_path), "--out", str(out_path)],
    )
    assert code == 0
    assert json.loads(out) == {"svg_path": str(out_path)}
    doc = out_path.read_text(encoding="utf-8")
    assert doc.count("<polygon") == 1
    assert doc.count('class="cut"') == 1
    assert doc.count("<circle") == 1


def test_plot_draws_a_cut_too_large_for_a_float(tmp_path, capsys):
    # a 401-digit coordinate has no float; the cut draws, and one with a
    # 401-digit offset, whose line lies far outside the canvas, is skipped
    path = tmp_path / "tri.json"
    path.write_text(README_TRIANGLE, encoding="utf-8")
    cuts_path = tmp_path / "cuts.json"
    huge = "1" + "0" * 400
    cuts = [{"a": [huge, "1"], "beta": "1"}, {"a": ["1", "1"], "beta": huge}]
    cuts_path.write_text(json.dumps({"cuts": cuts}), encoding="utf-8")
    out_path = tmp_path / "plot.svg"
    code, out, _ = run(
        capsys, ["plot", "--instance", str(path), "--cuts", str(cuts_path), "--out", str(out_path)]
    )
    assert code == 0
    assert json.loads(out) == {"svg_path": str(out_path)}
    assert out_path.read_text(encoding="utf-8").count('class="cut"') == 1


@pytest.mark.parametrize("over", [-299, 0, 1, 701])
def test_plot_reads_cut_digits_up_to_the_interpreters_limit(tmp_path, capsys, over):
    # a cut's parts have no digit bound of their own, but int() converts at
    # most sys.get_int_max_str_digits() digits (4300 by default, so 4001 to
    # 5001 digits here); past it a cut exits 1 with a short message that
    # names both counts and echoes none of the digits
    limit = sys.get_int_max_str_digits()
    digits = limit + over
    path = tmp_path / "tri.json"
    path.write_text(README_TRIANGLE, encoding="utf-8")
    cuts_path = tmp_path / "cuts.json"
    cuts = [{"a": ["1" + "0" * (digits - 1), "1"], "beta": "1"}]
    cuts_path.write_text(json.dumps({"cuts": cuts}), encoding="utf-8")
    out_path = tmp_path / "plot.svg"
    code, out, err = run(
        capsys, ["plot", "--instance", str(path), "--cuts", str(cuts_path), "--out", str(out_path)]
    )
    if over <= 0:
        assert code == 0
        assert out_path.read_text(encoding="utf-8").count('class="cut"') == 1
    else:
        assert code == 1 and out == "" and not out_path.exists()
        message = f"a number's {digits} digits pass the interpreter's limit of {limit}"
        assert err == f"error: {message}\n" and len(err) < 100


@pytest.mark.parametrize(
    "command, part, shown",
    [
        ("plot", "1" * 5000 + "x", "'" + "1" * 39 + "... (5003 characters)"),
        ("separate", "1" * 3000 + "y", "'" + "1" * 39 + "... (3003 characters)"),
        ("plot", "1x", "'1x'"),
        ("separate", "1/2/3", "'1/2/3'"),
    ],
    ids=["plot-cut", "separate-point", "plot-cut-short", "separate-point-short"],
)
def test_a_malformed_number_is_echoed_up_to_40_characters(
    tmp_path, capsys, command, part, shown
):
    # a cut's part or a --point coordinate that is no rational: the error
    # shows a short value whole, and of a long one its first 40 characters
    # and its length, so the message stays short however long the input
    path = tmp_path / "tri.json"
    path.write_text(README_TRIANGLE, encoding="utf-8")
    argv = [command, "--instance", str(path)]
    if command == "plot":
        cuts_path = tmp_path / "cuts.json"
        cuts = {"cuts": [{"a": [part, "1"], "beta": "1"}]}
        cuts_path.write_text(json.dumps(cuts), encoding="utf-8")
        argv += ["--cuts", str(cuts_path), "--out", str(tmp_path / "plot.svg")]
    else:
        argv += ["--point", json.dumps([part, "1"])]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == "" and len(err) < 150
    assert err == f"error: not a rational: {shown}\n"


def test_plot_reads_the_output_of_approximate(tmp_path, capsys):
    # the --cuts file may hold "excess" beside "cuts", as approximate writes it
    inst = ser.Instance(
        polyhedron=UNIT_SQUARE,
        probes=(Vector([2, 0]), Vector([0, 2])),
        options=ser.InstanceOptions(grid=ser.GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 2))),
    )
    path = write_instance(tmp_path, "sq.json", inst)
    code, out, _ = run(capsys, ["approximate", "--instance", path])
    assert code == 0 and "excess" in json.loads(out)
    cuts_path = tmp_path / "cuts.json"
    cuts_path.write_text(out, encoding="utf-8")
    out_path = tmp_path / "plot.svg"
    code, out, _ = run(
        capsys, ["plot", "--instance", path, "--cuts", str(cuts_path), "--out", str(out_path)]
    )
    assert code == 0
    assert json.loads(out) == {"svg_path": str(out_path)}


def test_unknown_subcommand_exit_64(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 64
    assert "usage" in err.lower()


def test_approximate_rejects_a_point_flag_exit_64(tmp_path, capsys):
    # approximate reads probes and never a point, so --point is not one of
    # its options; the 3-D point would otherwise pass unread
    inst = ser.Instance(
        polyhedron=UNIT_SQUARE,
        probes=(Vector([2, 0]),),
        options=ser.InstanceOptions(grid=ser.GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 2))),
    )
    path = write_instance(tmp_path, "sq.json", inst)
    code, out, err = run(capsys, ["approximate", "--instance", path, "--point", '["1","2","3"]'])
    assert code == 64 and out == ""
    assert "--point" in err
    for command in ("separate", "verify", "counterexample", "plot"):
        assert cli.build_parser().parse_args([command, "--point", "[]"]).point == "[]"


@pytest.mark.parametrize("reverse", [False, True])
def test_approximate_probe_from_another_field_exit_1(tmp_path, capsys, reverse):
    # (3, 3) leaves the sqrt(2) triangle and its cut excludes (3 + sqrt 3, 3)
    # too, so the second probe's field is checked whichever comes first
    probes = [["3", "3"], [{"r": "3", "s": "1", "k": 3}, "3"]]
    instance = json.loads(README_TRIANGLE)
    del instance["point"]
    instance["probes"] = probes[::-1] if reverse else probes
    instance["options"]["grid"] = {"min": ["-1", "-1"], "max": ["2", "2"], "step": "1/2"}
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    code, out, err = run(capsys, ["approximate", "--instance", str(path)])
    assert code == 1 and out == ""
    assert "cannot mix sqrt(3) and sqrt(2) exactly" in err


def test_no_subcommand_exit_64(capsys):
    code, _, err = run(capsys, [])
    assert code == 64


def test_malformed_instance_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["separate", "--instance", str(path)])
    assert code == 1
    assert "JSON" in err

    path2 = tmp_path / "empty.json"
    path2.write_text("{}", encoding="utf-8")
    code, _, err = run(capsys, ["separate", "--instance", str(path2)])
    assert code == 1


@pytest.mark.parametrize(
    "coord", ['{"r": "1", "s": "0", "k": 4}', '{"r": "0", "s": "1", "k": 1000000000000000000000}']
)
def test_bad_field_k_exit_1(tmp_path, capsys, coord):
    path = tmp_path / "bad_k.json"
    path.write_text(
        '{"set": {"vertices": [["0", "0"], [%s, "1"]]}, "point": ["3", "3"]}' % coord,
        encoding="utf-8",
    )
    code, out, err = run(capsys, ["separate", "--instance", str(path)])
    assert code == 1 and out == ""
    assert "k must be" in err


def test_float_declared_dim_exit_1(tmp_path, capsys):
    path = tmp_path / "float_dim.json"
    instance = {"set": {"dim": 2.0, "vertices": [["0", "0"], ["1", "0"]]}, "point": ["0", "1"]}
    path.write_text(json.dumps(instance), encoding="utf-8")
    code, out, err = run(capsys, ["separate", "--instance", str(path)])
    assert code == 1 and out == ""
    assert "declared dim must be an integer, got 2.0" in err


def test_oversized_set_exit_1(tmp_path, capsys):
    path = tmp_path / "big.json"
    vertices = [[str(i), "0"] for i in range(ser.MAX_GENERATORS + 1)]
    instance = {"set": {"vertices": vertices}, "point": ["0", "1"]}
    path.write_text(json.dumps(instance), encoding="utf-8")
    code, out, err = run(capsys, ["separate", "--instance", str(path)])
    assert code == 1 and out == ""
    assert f"at most {ser.MAX_GENERATORS} vertices and rays" in err


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, ["separate", "--instance", "does/not/exist.json"])
    assert code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["separate", "--point", "[1,"], "--point is not valid JSON"),
        (["counterexample", "--point", "[1,"], "--point is not valid JSON"),
        (["approximate", "--grid", "{"], "--grid is not valid JSON"),
    ],
)
def test_bad_inline_json_exit_1(tmp_path, capsys, argv, message):
    inst = ser.Instance(polyhedron=TRIANGLE, point=Vector([1, 1]), probes=(Vector([2, 2]),))
    path = write_instance(tmp_path, "tri.json", inst)
    code, out, err = run(capsys, argv + ["--instance", path])
    assert code == 1 and out == ""
    assert message in err


def fail_if_called(*args):
    raise AssertionError("an input over a parse limit reached the computation")


OVERSIZED_GRID = {"min": ["0", "0"], "max": ["1", "1"], "step": "1/316"}  # 317**2 points


@pytest.mark.parametrize(
    "options, argv, message",
    [
        ({"max_den": ser.MAX_DEN + 1}, ["separate"], "options.max_den must be at most"),
        ({}, ["separate", "--max-den", str(ser.MAX_DEN + 1)], "--max-den must be at most"),
        ({"grid": OVERSIZED_GRID}, ["approximate"], "grid may have at most"),
        ({}, ["approximate", "--grid", json.dumps(OVERSIZED_GRID)], "grid may have at most"),
    ],
)
def test_over_limit_max_den_and_grid_exit_1(tmp_path, capsys, monkeypatch, options, argv, message):
    monkeypatch.setattr(cli, "brute_force_separator", fail_if_called)
    monkeypatch.setattr(cli, "excess_measure", fail_if_called)
    instance = {
        "set": ser.polyhedron_to_json(TRIANGLE),
        "point": ["1", "1"],
        "probes": [["2", "2"]],
        "options": options,
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    code, out, err = run(capsys, argv + ["--instance", str(path)])
    assert code == 1 and out == ""
    assert message in err


def test_approximate_rejects_a_3d_set_before_separating(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(approximation, "separate", fail_if_called)
    tetrahedron = VPolyhedron(
        (Vector([0, 0, 0]), Vector([1, 0, 0]), Vector([0, 1, 0]), Vector([0, 0, 1]))
    )
    inst = ser.Instance(
        polyhedron=tetrahedron,
        probes=tuple(Vector(p) for p in ([2, 0, 0], [0, 2, 0], [0, 0, 2], [-1, -1, -1])),
        options=ser.InstanceOptions(grid=GridSpec((F(0), F(0)), (F(1), F(1)), F(1, 2))),
    )
    path = write_instance(tmp_path, "tetra.json", inst)
    code, out, err = run(capsys, ["approximate", "--instance", path])
    assert code == 1 and out == ""
    assert "the excess measure is 2-D only" in err


def test_too_many_probes_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ser, "parse_vector", fail_if_called)
    instance = {
        "set": ser.polyhedron_to_json(TRIANGLE),
        "probes": [["2", "2"]] * (ser.MAX_PROBES + 1),
        "options": {"grid": {"min": ["0", "0"], "max": ["1", "1"], "step": "1/2"}},
    }
    path = tmp_path / "many.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    code, out, err = run(capsys, ["approximate", "--instance", str(path)])
    assert code == 1 and out == ""
    assert f"'probes' may have at most {ser.MAX_PROBES} entries" in err


@pytest.mark.parametrize(
    "options, argv",
    [
        ({"budget": ser.MAX_PROBES + 1}, ["approximate"]),
        ({}, ["approximate", "--budget", str(ser.MAX_PROBES + 1)]),
    ],
)
def test_over_limit_budget_exit_1(tmp_path, capsys, monkeypatch, options, argv):
    monkeypatch.setattr(cli, "outer_approximate", fail_if_called)
    instance = {
        "set": ser.polyhedron_to_json(TRIANGLE),
        "probes": [["2", "2"]],
        "options": {"grid": {"min": ["0", "0"], "max": ["1", "1"], "step": "1/2"}, **options},
    }
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    code, out, err = run(capsys, argv + ["--instance", str(path)])
    assert code == 1 and out == ""
    assert f"budget must be at most {ser.MAX_PROBES}, got {ser.MAX_PROBES + 1}" in err


@pytest.mark.parametrize(
    "options, argv",
    [({"budget": ser.MAX_PROBES}, ["approximate"]), ({}, ["approximate", "--budget", "500"])],
)
def test_budget_at_the_limit_is_accepted(tmp_path, capsys, options, argv):
    instance = {
        "set": ser.polyhedron_to_json(TRIANGLE),
        "probes": [["2", "2"]],
        "options": {"grid": {"min": ["0", "0"], "max": ["1", "1"], "step": "1/2"}, **options},
    }
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    code, out, _ = run(capsys, argv + ["--instance", str(path)])
    assert code == 0
    assert len(json.loads(out)["cuts"]) == 1


ONE_D_CUT = {"a": ["1"], "beta": "1"}
THREE_D_CUT = {"a": ["1", "1", "1"], "beta": "3"}


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (["approximate", "--grid", '{"min": "00", "max": "22", "step": "1/2"}'], {}, "grid 'min' must be an array"),
        (["verify", "--certificate", "CERT"], {"CERT": {"a": "12", "beta": "1"}}, "must be an array"),
        (["plot", "--cuts", "CUTS", "--out", "SVG"], {"CUTS": {"cuts": "x"}}, "'cuts' must be an array"),
        (["plot", "--cuts", "CUTS", "--out", "SVG"], {"CUTS": {"cuts": {"0": {}}}}, "'cuts' must be an array"),
        (["plot", "--cuts", "CUTS", "--out", "SVG"], {"CUTS": {"cuts": [ONE_D_CUT]}}, "cuts must be 2-D"),
        (["plot", "--cuts", "CUTS", "--out", "SVG"], {"CUTS": {"cuts": [THREE_D_CUT]}}, "cuts must be 2-D"),
    ],
)
def test_string_or_object_for_an_array_exit_1(tmp_path, capsys, argv, files, message):
    inst = ser.Instance(polyhedron=TRIANGLE, point=Vector([1, 1]), probes=(Vector([2, 2]),))
    path = write_instance(tmp_path, "tri.json", inst)
    paths = {"SVG": str(tmp_path / "plot.svg")}
    for name, obj in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, [paths.get(arg, arg) for arg in argv] + ["--instance", path])
    assert code == 1 and out == ""
    assert message in err
    assert not (tmp_path / "plot.svg").exists()


MARK = "7/11"  # the entries of each over-long array below


def fail_on_mark(parse):
    def guarded(obj, *args, **kwargs):
        if obj == MARK:
            raise AssertionError("an entry of an array over its bound was parsed")
        return parse(obj, *args, **kwargs)

    return guarded


GRID = {"min": ["0", "0"], "max": ["1", "1"], "step": "1/2"}
LONG_VECTOR = [MARK] * (ser.MAX_DIM + 1)
LONG_CORNER = [MARK] * 3


@pytest.mark.parametrize(
    "argv, instance, message",
    [
        (["separate"], {"point": LONG_VECTOR}, f"a vector may have at most {ser.MAX_DIM} entries"),
        (["approximate"], {"probes": [LONG_VECTOR], "options": {"grid": GRID}}, "a vector may"),
        (
            ["approximate", "--grid", json.dumps({**GRID, "min": LONG_CORNER})],
            {"probes": [["2", "2"]]},
            "grid 'min' may have at most 2 entries, got 3",
        ),
        (
            ["approximate", "--grid", json.dumps({**GRID, "max": LONG_CORNER})],
            {"probes": [["2", "2"]]},
            "grid 'max' may have at most 2 entries, got 3",
        ),
        (
            ["plot", "--cuts", "CUTS", "--out", "SVG"],
            {},
            f"'cuts' may have at most {ser.MAX_PROBES} entries, got {ser.MAX_PROBES + 1}",
        ),
    ],
    ids=["point", "probe", "grid-min", "grid-max", "cuts"],
)
def test_an_array_over_its_bound_exit_1_before_any_entry_is_parsed(
    tmp_path, capsys, monkeypatch, argv, instance, message
):
    monkeypatch.setattr(ser, "parse_coord", fail_on_mark(ser.parse_coord))
    monkeypatch.setattr(ser, "parse_fraction", fail_on_mark(ser.parse_fraction))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"set": ser.polyhedron_to_json(TRIANGLE), **instance}))
    cuts = {"cuts": [{"a": [MARK, MARK], "beta": MARK}] * (ser.MAX_PROBES + 1)}
    (tmp_path / "cuts.json").write_text(json.dumps(cuts))
    paths = {"CUTS": str(tmp_path / "cuts.json"), "SVG": str(tmp_path / "plot.svg")}
    code, out, err = run(capsys, [paths.get(a, a) for a in argv] + ["--instance", str(path)])
    assert code == 1 and out == ""
    assert message in err


TETRAHEDRON = [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize(
    "argv, instance, message",
    [
        (["separate"], {}, "separate needs a point (instance 'point' or --point)"),
        (["verify"], {}, "verify needs a point (instance 'point' or --point)"),
        (
            ["verify"],
            {"point": ["2", "2"]},
            "verify needs a certificate (--certificate or instance field)",
        ),
        (
            ["approximate"],
            {"probes": [], "options": {"grid": GRID}},
            "approximate needs a nonempty 'probes' list in the instance",
        ),
        (
            ["separate", "--max-den", "4"],
            {"set": {"vertices": TETRAHEDRON}, "point": ["2", "2", "2"]},
            "--max-den cross-checking is 2-D only",
        ),
        (["separate", "--point", '["2", "2"]'], None, "an --instance file is required"),
        (
            ["approximate"],
            {"probes": [["2", "2"]], "options": {"grid": {**GRID, "min": ["0"]}}},
            "grids are 2-D",
        ),
        (["separate"], {"set": [], "point": ["2", "2"]}, "set must be an object"),
        (["counterexample"], {}, "counterexample needs a direction (--point or instance point)"),
    ],
    ids=[
        "separate-point",
        "verify-point",
        "verify-certificate",
        "approximate-probes",
        "max-den-3d",
        "instance",
        "grid-1d",
        "set-array",
        "counterexample-direction",
    ],
)
def test_a_missing_or_misshapen_part_exit_1(tmp_path, capsys, argv, instance, message):
    # instance None: no --instance at all; else the triangle, with no
    # point, overridden by the entries of ``instance``
    if instance is not None:
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"set": ser.polyhedron_to_json(TRIANGLE), **instance}))
        argv = argv + ["--instance", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["separate", "counterexample"])
def test_a_point_past_the_digit_bound_exit_1(tmp_path, capsys, command):
    inst = ser.Instance(polyhedron=TRIANGLE, point=Vector([1, 1]))
    path = write_instance(tmp_path, "tri.json", inst)
    point = json.dumps(["1", "1" * (ser.MAX_DIGITS + 1)])
    code, out, err = run(capsys, [command, "--point", point, "--instance", path])
    assert code == 1 and out == ""
    assert f"at most {ser.MAX_DIGITS} digits" in err


# The largest square-free k at most MAX_FIELD_K: 2 * 499999999999.
BIG_K = 999_999_999_998


def tall_fraction(rng, digits):
    """A random fraction whose numerator and denominator have ``digits`` digits."""
    lo, hi = 10 ** (digits - 1), 10**digits
    return F(rng.choice((-1, 1)) * rng.randrange(lo, hi), rng.randrange(lo, hi))


def rounded(x: F, digits: int) -> F:
    """x as a decimal fraction within ``digits`` digits (|x| < 10**(digits - 1))."""
    e = digits - 1 - len(str(abs(x.numerator) // x.denominator))
    return F(round(x * 10**e), 10**e)


def test_separate_at_every_parse_limit_at_once(tmp_path, capsys, monkeypatch):
    # MAX_GENERATORS vertices in dimension MAX_DIM over Q(sqrt(BIG_K)), the
    # r and s parts of every coordinate with MAX_DIGITS-digit numerators and
    # denominators, and a point just outside a facet, so that the projection
    # lies inside the facet, MAX_DIM vertices spanning it
    d, m, digits = ser.MAX_DIM, ser.MAX_GENERATORS, ser.MAX_DIGITS
    assert BIG_K <= ser.MAX_FIELD_K and Surd.root(BIG_K).k == BIG_K
    rng = Random(1)

    def coord():
        return Surd(tall_fraction(rng, digits), tall_fraction(rng, digits), BIG_K)

    P = VPolyhedron(tuple(Vector([coord() for _ in range(d)]) for _ in range(m)))
    a, b = P.facet_description.facets[0]
    on = [v for v in P.vertices if (a.dot(v) - b).sign() == 0]
    centroid = F(1, len(on)) * sum(on[1:], on[0])
    # push by ~1000 along the normal, far above the rounding error of the
    # sqrt(k) parts (< sqrt(k) / 10**(digits - 2) ~ 10), far below the
    # coordinates (~10**6)
    y = centroid + F(1000) / max(abs(x.r) + abs(x.s) * 10**6 for x in a) * a
    y = Vector([Surd(rounded(x.r, digits), rounded(x.s, digits), BIG_K) for x in y])
    assert len(on) == d and (a.dot(y) - b).sign() > 0
    path = tmp_path / "limits.json"
    path.write_text(ser.dumps(ser.instance_to_json(ser.Instance(polyhedron=P, point=y))))

    # every exact Gram solve of the projection, which a walk over the
    # generator subsets would make by the thousand; membership and the
    # projection itself share one run of 7 solves, as X keeps its last
    # projection
    solves = []
    solve = sets.solve_linear_system

    def counting_solve(rows, rhs):
        solves.append(len(rows))
        return solve(rows, rhs)

    monkeypatch.setattr(sets, "solve_linear_system", counting_solve)
    start = time.perf_counter()
    code, out, _ = run(capsys, ["separate", "--instance", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    inst = ser.parse_instance(json.loads(path.read_text()))
    cert = ser.parse_certificate(json.loads(out)["certificate"])
    assert verify_certificate(inst.polyhedron, inst.point, cert)
    assert elapsed < 60, f"separate at every parse limit took {elapsed:.1f}s (limit 60s)"
    assert 0 < len(solves) <= 50, f"the projection made {len(solves)} Gram solves"


def test_approximate_at_every_parse_limit_at_once(tmp_path, capsys):
    # MAX_GENERATORS vertices in the plane over Q(sqrt(BIG_K)), every r and
    # s part with MAX_DIGITS-digit numerators and denominators, MAX_PROBES
    # probes just outside the edges, the budget at MAX_PROBES and a grid of
    # close to MAX_GRID_POINTS points covering the set.  The vertices lie
    # near the circle of radius sqrt(k) about (2, 2)*sqrt(k), all extreme.
    m, digits, n = ser.MAX_GENERATORS, ser.MAX_DIGITS, ser.MAX_PROBES
    rng = Random(2)

    def coord(s):
        den = rng.randrange(10 ** (digits - 1), 3 * 10 ** (digits - 1))
        return Surd(tall_fraction(rng, digits), F(round(s * den), den), BIG_K)

    angles = [2 * math.pi * i / m for i in range(m)]
    P = VPolyhedron(tuple(Vector([coord(2 + math.cos(t)), coord(2 + math.sin(t))]) for t in angles))
    assert len(P.facet_description.facets) == m
    edges = []
    for a, b in P.facet_description.facets:
        u, v = [w for w in P.vertices if (a.dot(w) - b).sign() == 0]
        # ~1000 outward, far above the rounding error of the sqrt(k) parts
        edges.append((u, v, F(1000) / max(abs(x.r) + abs(x.s) * 10**6 for x in a) * a))
    probes = []
    for i in range(n):
        u, v, push = edges[i % len(edges)]
        t = F(i // len(edges) + 1, n // len(edges) + 2)
        y = t * u + (1 - t) * v + push
        probes.append(Vector([Surd(rounded(x.r, digits), rounded(x.s, digits), BIG_K) for x in y]))
    assert not any(facet_membership(P, y) for y in probes)
    corners = [float(x) for w in P.vertices for x in w]
    lo, hi = math.floor(min(corners)) - 1, math.ceil(max(corners)) + 1
    side = math.isqrt(ser.MAX_GRID_POINTS) - 1
    grid = GridSpec((F(lo), F(lo)), (F(hi), F(hi)), F(hi - lo, side))
    assert ser.MAX_GRID_POINTS - 1000 < grid.shape[0] * grid.shape[1] <= ser.MAX_GRID_POINTS
    inst = ser.Instance(polyhedron=P, probes=tuple(probes), options=ser.InstanceOptions(grid=grid))
    path = write_instance(tmp_path, "limits.json", inst)

    start = time.perf_counter()
    code, out, _ = run(capsys, ["approximate", "--instance", path, "--budget", str(n)])
    elapsed = time.perf_counter() - start
    assert code == 0
    cuts = ser.parse_cuts(json.loads(out))
    approximation.OuterApprox(target=P, cuts=cuts)
    assert cuts and all(any(cut.excludes(y) for y in probes) for cut in cuts)
    assert elapsed < 120, f"approximate at every parse limit took {elapsed:.1f}s (limit 120s)"
