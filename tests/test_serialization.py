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
from helpers import (
    exterior_point,
    random_pointed_polyhedron,
    reference_normal_to_json,
    reference_vector_to_json,
)

SQ2 = Surd.root(2)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=30)


def test_fraction_round_trip_examples():
    assert ser.fraction_to_str(F(-3, 4)) == "-3/4"
    assert ser.fraction_to_str(F(2)) == "2/1"
    assert ser.parse_fraction("-3/4") == F(-3, 4)
    assert ser.parse_fraction("7") == F(7)
    assert ser.parse_fraction(5) == F(5)


@pytest.mark.parametrize(
    "bad", ["", "a/b", "1/0", "1.5", None, True, [1], "1_000", "\u0661\u0662", "1/-2", "+1", "1/+2"]
)
def test_parse_fraction_rejects(bad):
    with pytest.raises(ValueError, match="not a rational"):
        ser.parse_fraction(bad)


@given(rationals)
def test_fraction_round_trip(f):
    assert ser.parse_fraction(ser.fraction_to_str(f)) == f


def test_coord_encoding_shape():
    assert ser.vector_to_json(Vector([Surd(F(1, 2))])) == ["1/2"]
    assert ser.vector_to_json(Vector([Surd(F(1, 2), F(-1, 3), 2)])) == [{
        "r": "1/2",
        "s": "-1/3",
        "k": 2,
    }]
    assert ser.parse_coord("1/2") == Surd(F(1, 2))
    assert ser.parse_coord({"r": "0/1", "s": "1/1", "k": 2}) == SQ2


@given(rationals, rationals, st.sampled_from([1, 2, 3, 5]))
def test_coord_round_trip(r, s, k):
    c = Surd(r, s, k)
    (obj,) = ser.vector_to_json(Vector([c]))
    assert ser.parse_coord(obj) == c


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
    assert huge > ratsep.scalars.MAX_FIELD_K
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
    with pytest.raises(ValueError, match=f"a vector may have at most {ser.MAX_DIM} entries"):
        ser.parse_polyhedron({"vertices": [["0", "0"]], "rays": [["1"] * (ser.MAX_DIM + 1)]})
    with pytest.raises(ValueError, match="'vertices' must be an array"):
        ser.parse_polyhedron({"vertices": {"0": ["0", "0"]}})


def test_parse_bounds_probe_count_before_parsing_any_vector(monkeypatch):
    def fail(obj):
        raise AssertionError("a vector was parsed")

    monkeypatch.setattr(ser, "parse_vector", fail)
    n = ser.MAX_PROBES
    instance = {"set": {"vertices": [["0", "0"]]}, "probes": [["1", "1"]] * (n + 1)}
    with pytest.raises(ValueError, match=f"'probes' may have at most {n} entries, got {n + 1}"):
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


def test_each_field_is_checked_once_per_document(monkeypatch):
    # 3078 coordinates and the set's declared k, all over one field: the
    # O(k**(1/3)) square-free test runs once per parsed document
    calls = []
    square_free = ratsep.scalars._is_square_free

    def counted(k):
        calls.append(k)
        return square_free(k)

    monkeypatch.setattr(ratsep.scalars, "_is_square_free", counted)
    big = 999999999989
    coord = {"r": "1/2", "s": "1/3", "k": big}
    vector = [coord] * 6
    vertices = [[coord] * i + [{"r": "1", "k": big}] + [coord] * (5 - i) for i in range(6)]
    vertices += [[coord] * i + [{"r": "-1", "k": big}] + [coord] * (5 - i) for i in range(6)]
    instance = {
        "set": {"dim": 6, "k": big, "vertices": vertices},
        "point": vector,
        "probes": [vector] * ser.MAX_PROBES,
    }
    inst = ser.parse_instance(instance)
    assert calls == [big] and len(inst.probes) == ser.MAX_PROBES
    assert inst.polyhedron.field_k == big
    calls.clear()
    ser.parse_polyhedron(instance["set"])
    ser.parse_vector(vector)
    assert calls == [big, big]
    # a field first declared in an s = 0 coordinate is still checked
    with pytest.raises(ValueError, match="k must be positive and square-free, got 4"):
        ser.parse_vector([{"r": "1", "k": 4}, {"s": "1", "k": 4}])


@pytest.mark.parametrize(
    "read",
    [
        ser.parse_coord,
        lambda c: ser.parse_vector([c]),
        lambda c: ser.parse_polyhedron({"vertices": [[c]]}),
        lambda c: ser.parse_instance({"set": {"vertices": [["0"]]}, "point": [c]}),
    ],
    ids=["coord", "vector", "set", "instance"],
)
def test_public_readers_check_every_field_they_read(read):
    # each public call starts its own set of already-checked fields, so a
    # k it has not seen is checked, whatever was parsed before
    with pytest.raises(ValueError, match="k must be positive and square-free, got 4"):
        read({"s": "1", "k": 4})


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


SET = {"vertices": [["0", "0"], ["1", "0"]]}
TRACE = ser.trace_to_json(
    separate(VPolyhedron((Vector([0, 0]), Vector([SQ2, 0]), Vector([0, 1]))), Vector([1, 1]))[1]
)


@pytest.mark.parametrize(
    "parse, obj, key",
    [
        (ser.parse_instance, {"set": SET, "pointt": ["1", "1"]}, "pointt"),
        (ser.parse_instance, {"set": SET, "options": {"maxden": 4}}, "maxden"),
        (ser.parse_instance, {"set": {**SET, "ray": [["1", "0"]]}}, "ray"),
        (ser.parse_polyhedron, {**SET, "field": 2}, "field"),
        (ser.parse_grid, {"min": ["0", "0"], "max": ["1", "1"], "step": "1", "steps": "2"}, "steps"),
        (ser.parse_certificate, {"a": ["1", "0"], "beta": "1", "valid": True}, "valid"),
        (ser.parse_trace, {**TRACE, "lambd": "1/2"}, "lambd"),
    ],
)
def test_parse_rejects_unknown_fields_by_name(parse, obj, key):
    # a misspelled optional field must not be dropped silently
    with pytest.raises(ValueError, match=rf"unknown \w+ fields: \['{key}'\]"):
        parse(obj)


LONG_DIGITS = int("9" * 4000)


@pytest.mark.parametrize(
    "parse, obj",
    [
        (ser.parse_polyhedron, {**SET, "k": LONG_DIGITS}),
        (ser.parse_polyhedron, {**SET, "k": -LONG_DIGITS}),
        (ser.parse_polyhedron, {**SET, "k": "2" * 4000}),
        (ser.parse_polyhedron, {**SET, "dim": "2" * 4000}),
        (ser.parse_polyhedron, {**SET, "x" * 5000: 1}),
        (ser.parse_instance, {"set": SET, "options": {"budget": LONG_DIGITS}}),
        (ser.parse_coord, {"r": "1" * 5000 + "x"}),
    ],
    ids=["k-digits", "negative-k-digits", "k-string", "dim-string", "unknown-field", "budget-digits", "coord-part"],
)
def test_a_long_value_is_echoed_up_to_40_characters(parse, obj):
    # the message shows the value's first 40 characters and its length
    with pytest.raises(ValueError) as raised:
        parse(obj)
    message = str(raised.value)
    assert len(message) < 120 and message.endswith(" characters)")


def test_a_value_is_echoed_whole_up_to_40_characters_and_cut_past_them():
    with pytest.raises(ValueError) as whole:
        ser.parse_fraction("a" * 38)
    assert str(whole.value).endswith(repr("a" * 38))
    with pytest.raises(ValueError) as cut:
        ser.parse_fraction("a" * 39)
    assert str(cut.value).endswith(f"{repr('a' * 39)[:40]}... (41 characters)")


def test_a_json_integer_may_have_max_digits_digits_and_no_more():
    top = 10**ser.MAX_DIGITS - 1
    assert ser.parse_vector([top]) == Vector([top])
    with pytest.raises(ValueError, match=f"at most {ser.MAX_DIGITS} digits"):
        ser.parse_vector([top + 1])


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
    with pytest.raises(ValueError, match=f"a certificate's 'a' may have at most {n} entries"):
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


def test_parse_accepts_coordinates_at_the_digit_bound():
    top = "9" * ser.MAX_DIGITS
    assert ser.parse_coord(f"-{top}/{top}") == Surd(-1)
    assert ser.parse_coord(int(top)) == Surd(int(top))
    assert ser.parse_coord({"r": top, "s": f"1/{top}", "k": 2}) == Surd(int(top), F(1, int(top)), 2)


TALL = "1" * (ser.MAX_DIGITS + 1)


@pytest.mark.parametrize(
    "coord",
    [
        TALL, f"-{TALL}", f"1/{TALL}", "1" * 5000, int(TALL), -int(TALL),
        {"r": TALL}, {"s": f"1/{TALL}", "k": 2},
    ],
    ids=["num", "neg-num", "den", "past-int-str-limit", "int", "neg-int", "surd-r", "surd-s"],
)
def test_parse_bounds_coordinate_digits(coord):
    bound = f"at most {ser.MAX_DIGITS} digits"
    with pytest.raises(ValueError, match=bound):
        ser.parse_coord(coord)
    for instance in (
        {"set": {"vertices": [[coord, "0"]]}},
        {"set": SET, "point": ["0", coord]},
        {"set": SET, "probes": [["1", "1"], [coord, "1"]]},
    ):
        with pytest.raises(ValueError, match=bound):
            ser.parse_instance(instance)


def test_certificates_and_traces_are_read_past_the_digit_bound():
    # separate makes them taller than its input: on this triangle with
    # 10-digit coordinates their numbers have up to 43 digits
    tall = 10**10 - 1
    tri = VPolyhedron((Vector([0, 0]), Vector([F(tall, 3), 0]), Vector([0, F(1, tall)])))
    cert, trace = separate(tri, Vector([tall, tall]))
    assert max(len(str(abs(f.numerator))) for f in cert.a.as_fractions()) > ser.MAX_DIGITS
    with pytest.raises(ValueError, match=f"at most {ser.MAX_DIGITS} digits"):
        ser.parse_vector(ser.vector_to_json(trace.z_tilde))
    assert ser.parse_certificate(ser.certificate_to_json(cert)) == cert
    assert ser.parse_trace(ser.trace_to_json(trace)) == trace
    inst = {"set": SET, "certificate": ser.certificate_to_json(cert)}
    assert ser.parse_instance(inst).certificate == cert


@pytest.mark.parametrize("name", ["budget", "max_den"])
def test_a_null_option_is_not_a_default(name):
    with pytest.raises(ValueError, match=f"options.{name} must be a positive integer"):
        ser.parse_instance({"set": SET, "options": {name: None}})


# parts of at most 7 digits over 7 digits, zero drawn often and alone
parts = st.one_of(
    st.just(F(0)), st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
)


@st.composite
def mixed_vectors(draw):
    """Vectors of dimension 1-6 over Q or Q(sqrt k), k in {2, 3, 1000003},
    their coordinates ints, Fractions and Surds, any part zero or negative."""
    k = draw(st.sampled_from([1, 2, 3, 1000003]))
    coords = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["int", "fraction", "surd"]))
        if kind == "int":
            coords.append(draw(st.integers(-(10**9), 10**9)))
        elif kind == "fraction":
            coords.append(draw(parts))
        else:
            coords.append(Surd(draw(parts), draw(parts), k))
    return Vector(coords)


@given(mixed_vectors())
def test_the_writers_keep_their_bytes(v):
    # the integer writers against the Surd-and-Fraction writers they replace
    obj = ser.vector_to_json(v)
    assert obj == reference_vector_to_json(v)
    assert ser.parse_vector(obj, digits=None) == v
    if v.is_rational and not v.is_zero():
        cert = Certificate(v, F(1, 3))
        assert ser.certificate_to_json(cert)["a"] == reference_normal_to_json(v)


@pytest.mark.parametrize(
    "coord, written, field_k, m",
    [
        ("4/6", "2/3", 1, 3),
        (" 7 ", "7/1", 1, 1),
        ("-0", "0/1", 1, 1),
        ({"r": "2/4", "s": "0", "k": 3}, "1/2", 1, 2),
        ({"r": "1/2", "s": "1/2", "k": 2}, {"r": "1/2", "s": "1/2", "k": 2}, 2, 2),
    ],
    ids=["unreduced", "spaces", "minus-zero", "zero-sqrt-part", "surd"],
)
def test_a_coordinate_is_read_canonical_and_written_reduced(coord, written, field_k, m):
    v = ser.parse_vector([coord])
    assert (v.field_k, v.m) == (field_k, m)
    assert ser.vector_to_json(v) == [written] == reference_vector_to_json(v)


def test_a_zero_denominator_is_not_a_rational():
    for read in (ser.parse_coord, lambda c: ser.parse_vector([c])):
        with pytest.raises(ValueError, match="not a rational: '1/0'"):
            read("1/0")


def test_the_boundary_builds_no_checked_surd_reading_and_none_writing(monkeypatch):
    # parse_vector builds each coordinate with Surd._make, so Surd.__init__
    # (which the benchmark tracer counts) runs zero times; vector_to_json
    # writes from the pairs and builds no Surd at all
    def fail(*args, **kwargs):
        raise AssertionError("a Surd was built")

    monkeypatch.setattr(Surd, "__init__", fail)
    v = ser.parse_vector(["1/2", {"r": "1/3", "s": "-1", "k": 2}, 5])
    cert = Certificate(ser.parse_vector(["1/2", "-3"]), F(1))
    monkeypatch.setattr(Surd, "_make", fail)
    assert ser.vector_to_json(v) == ["1/2", {"r": "1/3", "s": "-1/1", "k": 2}, "5/1"]
    assert ser.certificate_to_json(cert) == {"a": ["1/2", "-3/1"], "beta": "1/1"}
