import json
from fractions import Fraction as F

import pytest

from ratsep import (
    Certificate,
    GridSpec,
    SeparationBugError,
    Surd,
    Vector,
    VPolyhedron,
    verify_certificate,
)
from ratsep import cli
from ratsep import serialization as ser
from ratsep.cli import main

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
    assert out == ""
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
    assert out == ""
    assert err == "error: internal: strict separation inequality failed\n"


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


def test_counterexample(capsys):
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


def test_unknown_subcommand_exit_64(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 64
    assert "usage" in err.lower()


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
    assert f"at most {ser.MAX_PROBES} probes" in err


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


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (["approximate", "--grid", '{"min": "00", "max": "22", "step": "1/2"}'], {}, "must be arrays"),
        (["verify", "--certificate", "CERT"], {"CERT": {"a": "12", "beta": "1"}}, "must be an array"),
        (["plot", "--cuts", "CUTS", "--out", "SVG"], {"CUTS": {"cuts": "x"}}, "'cuts' array"),
        (["plot", "--cuts", "CUTS", "--out", "SVG"], {"CUTS": {"cuts": {"0": {}}}}, "'cuts' array"),
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
