import json
from fractions import Fraction as F
from math import isqrt
from random import Random

import pytest
from hypothesis import given, strategies as st

import ratsep.scalars
import ratsep.sets
from ratsep import Certificate, GridSpec, Surd, Vector, VPolyhedron, separate
from ratsep import serialization as ser
from helpers import exterior_point, random_pointed_polyhedron

SQ2 = Surd.root(2)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=30)


def test_fraction_round_trip_examples():
    assert ser.fraction_to_str(F(-3, 4)) == "-3/4"
    assert ser.fraction_to_str(F(2)) == "2/1"
    assert ser.parse_fraction("-3/4") == F(-3, 4)
    assert ser.parse_fraction("7") == F(7)
    assert ser.parse_fraction(5) == F(5)


@pytest.mark.parametrize("bad", ["", "a/b", "1/0", "1.5", None, True, [1]])
def test_parse_fraction_rejects(bad):
    with pytest.raises(ValueError):
        ser.parse_fraction(bad)


@given(rationals)
def test_fraction_round_trip(f):
    assert ser.parse_fraction(ser.fraction_to_str(f)) == f


def test_coord_encoding_shape():
    assert ser.coord_to_json(Surd(F(1, 2))) == "1/2"
    assert ser.coord_to_json(Surd(F(1, 2), F(-1, 3), 2)) == {
        "r": "1/2",
        "s": "-1/3",
        "k": 2,
    }
    assert ser.parse_coord("1/2") == Surd(F(1, 2))
    assert ser.parse_coord({"r": "0/1", "s": "1/1", "k": 2}) == SQ2


@given(rationals, rationals, st.sampled_from([1, 2, 3, 5]))
def test_coord_round_trip(r, s, k):
    c = Surd(r, s, k)
    assert ser.parse_coord(ser.coord_to_json(c)) == c


def test_parse_coord_rejects_junk():
    with pytest.raises(ValueError):
        ser.parse_coord({"r": "1/2", "s": "0/1", "k": 2, "zz": 1})
    with pytest.raises(ValueError):
        ser.parse_coord({"r": "1/2", "k": "two"})


@pytest.mark.parametrize("k", [4, -7, 0, 12])
def test_parse_coord_rejects_bad_k_of_rational_value(k):
    with pytest.raises(ValueError):
        ser.parse_coord({"r": "1", "s": "0", "k": k})


def test_parse_bounds_k_before_checking_it(monkeypatch):
    def fail(k):
        raise AssertionError(f"square-free test run on k={k}")

    monkeypatch.setattr(ratsep.scalars, "_is_square_free", fail)
    huge = 10**40
    assert huge > ser.MAX_FIELD_K
    with pytest.raises(ValueError, match="at most"):
        ser.parse_coord({"r": "0", "s": "1", "k": huge})
    with pytest.raises(ValueError, match="at most"):
        ser.parse_polyhedron({"k": huge, "vertices": [["0", "1"]]})


def test_parse_bounds_set_size_before_building_the_set(monkeypatch):
    def fail(*args):
        raise AssertionError("an oversized set was built")

    monkeypatch.setattr(ser, "VPolyhedron", fail)
    monkeypatch.setattr(ratsep.sets, "_double_description", fail)
    n = ser.MAX_GENERATORS
    with pytest.raises(ValueError, match=f"at most {n} vertices and rays"):
        ser.parse_polyhedron({"vertices": [["0", str(i)] for i in range(n)], "rays": [["1", "0"]]})
    with pytest.raises(ValueError, match=f"dimension at most {ser.MAX_DIM}"):
        ser.parse_polyhedron({"vertices": [["0", "0"]], "rays": [["1"] * (ser.MAX_DIM + 1)]})
    with pytest.raises(ValueError, match="must be arrays"):
        ser.parse_polyhedron({"vertices": {"0": ["0", "0"]}})


def test_parse_bounds_probe_count_before_parsing_any_vector(monkeypatch):
    def fail(obj):
        raise AssertionError("a vector was parsed")

    monkeypatch.setattr(ser, "parse_vector", fail)
    n = ser.MAX_PROBES
    instance = {"set": {"vertices": [["0", "0"]]}, "probes": [["1", "1"]] * (n + 1)}
    with pytest.raises(ValueError, match=f"at most {n} probes, got {n + 1}"):
        ser.parse_instance(instance)
    with pytest.raises(ValueError, match="'probes' must be an array"):
        ser.parse_instance({"set": {"vertices": [["0", "0"]]}, "probes": {"0": ["1", "1"]}})
    monkeypatch.undo()
    instance["probes"] = instance["probes"][:n]
    assert len(ser.parse_instance(instance).probes) == n


def test_parse_admits_sets_at_the_size_bounds():
    # the cyclic polytope: MAX_GENERATORS points on the moment curve
    d, m = ser.MAX_DIM, ser.MAX_GENERATORS
    P = ser.parse_polyhedron({"vertices": [[str(t**i) for i in range(1, d + 1)] for t in range(m)]})
    assert (P.dim, len(P.vertices)) == (d, m)


@pytest.mark.parametrize("k", [4, 0, -3, "2", True, 10**40])
def test_parse_polyhedron_rejects_bad_declared_k(k):
    with pytest.raises(ValueError):
        ser.parse_polyhedron({"k": k, "vertices": [["0", "1"]]})


@pytest.mark.parametrize("k", [1, 2, 1000003])
def test_parse_polyhedron_accepts_declared_k_with_rational_data(k):
    P = ser.parse_polyhedron({"k": k, "vertices": [["0", "1"]]})
    assert P.field_k == 1


def test_vector_round_trip_mixed():
    v = Vector([F(1, 3), SQ2, Surd(F(1, 2), F(2, 7), 2)])
    assert ser.parse_vector(ser.vector_to_json(v)) == v
    with pytest.raises(ValueError):
        ser.parse_vector([])


def test_polyhedron_round_trip():
    P = VPolyhedron(
        (Vector([0, 0]), Vector([SQ2, 0]), Vector([0, 1])),
        (Vector([1, 1]),),
    )
    obj = ser.polyhedron_to_json(P)
    assert obj["dim"] == 2 and obj["k"] == 2
    assert ser.parse_polyhedron(obj) == P


def test_polyhedron_declaration_mismatches():
    P = VPolyhedron((Vector([0, 0]),))
    obj = ser.polyhedron_to_json(P)
    for dim in (3, 2.0, True, "2"):
        obj["dim"] = dim
        with pytest.raises(ValueError):
            ser.parse_polyhedron(obj)
    line = ser.polyhedron_to_json(VPolyhedron((Vector([0]),)))
    for dim in (True, 1.0):
        line["dim"] = dim
        with pytest.raises(ValueError, match="declared dim must be an integer"):
            ser.parse_polyhedron(line)
    obj2 = ser.polyhedron_to_json(VPolyhedron((Vector([SQ2]),)))
    obj2["k"] = 3
    with pytest.raises(ValueError):
        ser.parse_polyhedron(obj2)


def test_certificate_round_trip():
    cert = Certificate(Vector([F(1, 2), F(-2, 3)]), F(7, 5))
    obj = ser.certificate_to_json(cert)
    assert obj == {"a": ["1/2", "-2/3"], "beta": "7/5"}
    assert ser.parse_certificate(obj) == cert


def test_grid_round_trip():
    grid = GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 20))
    assert ser.parse_grid(ser.grid_to_json(grid)) == grid


def test_trace_round_trip():
    tri = VPolyhedron((Vector([0, 0]), Vector([SQ2, 0]), Vector([0, 1])))
    _, trace = separate(tri, Vector([1, 1]))
    obj = ser.trace_to_json(trace)
    assert set(obj) == {
        "z_tilde", "y_bar", "d", "eps", "M", "alpha", "d_bar", "eps_bar",
        "delta_hat", "lambda", "ball_center", "ball_radius", "a", "beta",
    }
    assert ser.parse_trace(obj) == trace


def test_instance_round_trip():
    rng = Random(73)
    for _ in range(5):
        P = random_pointed_polyhedron(rng, 2, rng.choice([1, 2]), 3, rng.randint(0, 2))
        point = exterior_point(rng, P)
        inst = ser.Instance(
            polyhedron=P,
            point=point,
            probes=(Vector([5, 5]), Vector([-5, 0])),
            certificate=Certificate(Vector([0, -1]), F(100)),
            options=ser.InstanceOptions(
                budget=3,
                max_den=8,
                grid=GridSpec((F(-1), F(-1)), (F(2), F(2)), F(1, 4)),
            ),
        )
        again = ser.parse_instance(json.loads(ser.dumps(ser.instance_to_json(inst))))
        assert again == inst


def test_instance_validation():
    with pytest.raises(ValueError):
        ser.parse_instance({"point": ["1", "1"]})
    with pytest.raises(ValueError):
        ser.parse_instance({"set": {"vertices": [["0", "0"]]}, "options": {"budget": 0}})
    with pytest.raises(ValueError):
        ser.parse_instance({"set": {"vertices": [["0", "0"]]}, "options": {"max_den": True}})


def test_max_den_and_grid_limits():
    assert ser.check_count(ser.MAX_DEN, "options.max_den", ser.MAX_DEN) == ser.MAX_DEN
    with pytest.raises(ValueError, match="at most"):
        ser.check_count(ser.MAX_DEN + 1, "options.max_den", ser.MAX_DEN)
    n = ser.MAX_GRID_POINTS
    assert ser.parse_grid({"min": ["0", "0"], "max": [str(n - 1), "0"], "step": "1"})
    with pytest.raises(ValueError, match="at most"):
        ser.parse_grid({"min": ["0", "0"], "max": [str(n), "0"], "step": "1"})
    with pytest.raises(ValueError, match="at most"):
        ser.parse_grid({"min": ["0", "0"], "max": ["1", "1"], "step": f"1/{isqrt(n)}"})


@pytest.mark.parametrize(
    "parse, obj",
    [
        (ser.parse_grid, {"min": "00", "max": "22", "step": "1/2"}),
        (ser.parse_grid, {"min": {"0": 1, "1": 2}, "max": ["2", "2"], "step": "1/2"}),
        (ser.parse_grid, {"min": ["0", "0"], "max": {"0": 2, "1": 2}, "step": "1/2"}),
        (ser.parse_certificate, {"a": "12", "beta": "1"}),
        (ser.parse_certificate, {"a": {"0": "1", "1": "2"}, "beta": "1"}),
    ],
)
def test_parse_requires_arrays(parse, obj):
    # strings and objects iterate too; they must not pass for an array
    with pytest.raises(ValueError, match="must be (an array|arrays)"):
        parse(obj)


def test_parse_bounds_certificate_length_before_parsing_any_entry(monkeypatch):
    def fail(obj):
        raise AssertionError("an entry was parsed")

    monkeypatch.setattr(ser, "parse_fraction", fail)
    n = ser.MAX_DIM
    with pytest.raises(ValueError, match=f"dimension at most {n}"):
        ser.parse_certificate({"a": ["1"] * (n + 1), "beta": "1"})
    monkeypatch.undo()
    assert ser.parse_certificate({"a": ["1"] * n, "beta": "1"}).a.dim == n


def test_budget_is_bounded_by_the_probe_limit():
    n = ser.MAX_PROBES
    instance = {"set": {"vertices": [["0", "0"]]}, "options": {"budget": n}}
    assert ser.parse_instance(instance).options.budget == n
    instance["options"]["budget"] = n + 1
    with pytest.raises(ValueError, match=f"options.budget must be at most {n}, got {n + 1}"):
        ser.parse_instance(instance)


def test_dumps_is_canonical():
    payload = {"b": "2/1", "a": "1/1"}
    text = ser.dumps(payload)
    assert text == '{"a":"1/1","b":"2/1"}\n'
    assert ser.dumps(dict(reversed(list(payload.items())))) == text
