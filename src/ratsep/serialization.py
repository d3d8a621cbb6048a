"""Exact JSON encoding of instances, certificates, traces and results.

Numbers travel as canonical strings "p/q" (q > 0, lowest terms) or surd
objects {"r": "p/q", "s": "p/q", "k": int}; floats never enter the
format, so parse(serialize(x)) == x holds exactly.  Rational
coordinates are written as plain strings, irrational ones as surd
objects; the parser accepts either form anywhere a coordinate appears.
Each number is read to integers once, by ``_ratio``, the one reader
behind ``parse_fraction`` and ``parse_coord``, and a vector is written
from its integer pairs over its one denominator, so neither direction
builds a Fraction per coordinate.
Shapes are checked in one place: ``_object`` reads every JSON object and
``_array`` every JSON array of the format, bounding its length before any
entry is parsed.  ``dumps`` renders with sorted keys and fixed separators
so equal data serializes to identical bytes.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial
from math import gcd

from .approximation import GridSpec, OuterApprox
from .certificates import Certificate
from .scalars import Surd, Vector, _check_field
from .separation import SeparationTrace
from .sets import VPolyhedron

__all__ = [
    "Instance",
    "InstanceOptions",
    "fraction_to_str",
    "parse_fraction",
    "parse_coord",
    "vector_to_json",
    "parse_vector",
    "polyhedron_to_json",
    "parse_polyhedron",
    "certificate_to_json",
    "parse_certificate",
    "trace_to_json",
    "parse_trace",
    "grid_to_json",
    "parse_grid",
    "check_count",
    "approx_to_json",
    "parse_cuts",
    "instance_to_json",
    "parse_instance",
    "dumps",
]


# The largest dimension d and generator count m (vertices plus rays) of a
# parsed set.  The facet count can grow like m**(d // 2), but ``separate``
# builds no facet description: ``project`` visits corrals of at most d + 1
# generators with one exact Gram solve each.  At these bounds the facet
# description of the cyclic polytope (12 points on the moment curve in
# dimension 6, 112 facets) takes ~0.01 s, and separating a point just
# outside one of its facets (the centroid of the facet's vertices plus
# 1/1000 of its normal) ~10-25 ms over Q and over Q(sqrt 2) (the curve at
# t + sqrt(2)/2) (2-core machine, Python 3.11).
MAX_DIM = 6
MAX_GENERATORS = 12
# The largest height bound of the 2-D brute-force oracle (``options.max_den``,
# ``separate --max-den``) and the largest grid (``options.grid``, ``--grid``)
# of the excess measure.  The oracle scans O(max_den**4) normals; a full scan
# that finds none (a point just outside the sqrt(2) edge of the README
# triangle) takes ~3.5-3.9 s at 32, in-process.  The excess measure counts
# the grid one line at a time, along the longer axis: at 10**5 points
# (316 x 316) it takes ~0.35-0.55 ms with no cuts and ~0.75-1.1 ms with
# the 11 cuts of the README triangle (best of 7 on fresh objects, on a
# machine whose speed drifts between runs), and ~0.014-0.018 s with the
# 12 cuts of a 12-vertex set over Q(sqrt 999999999998) with
# MAX_DIGITS-digit parts, whose canonical facet normals (parts of at most
# 286 bits) set the size of the integer square root of each line's bound;
# with a gcd alone the double description grew them to 13017 bits, and
# the same count took ~1.2-1.5 s (2-core machine, Python 3.11).
MAX_DEN = 32
MAX_GRID_POINTS = 10**5
# The longest probe list (``probes``) of an instance, checked before any
# vector is parsed, and the largest cut budget (``options.budget``,
# ``approximate --budget``): each cut needs a probe of its own, so no run
# can use more.  Each probe can cost one ``separate``: on 120 of the 2- to
# 4-dimensional sets with rays of the benchmark (``perfbench/gen.py``,
# seed 5) one call takes ~0.6-0.85 ms at the median and ~1.0-1.5 ms at the
# 90th percentile, each call timed once on a fresh parse, so 500 probes can
# take ~0.3 s to ~0.75 s (same machine).
MAX_PROBES = 500
# The most digits of each numerator and denominator (of r and s alike) in
# the coordinates of an input set, point or probe; certificates and traces,
# which ``separate`` makes taller, are not bounded.  7 is the least bound
# that admits the cyclic polytope above (11**6 has 7 digits).  At every
# limit at once (k = 999999999998, a point just outside a facet)
# ``separate`` takes ~0.12-0.22 s, 25-60% of it in one projection of 5-9
# exact Gram solves, which membership and ``project`` share, ~0.006 s over
# Q (best of 3 on seeds 0-2 of ``scripts/ab_separate.py --workload
# limits``).  On the 2-D set of 12 such vertices of
# ``test_cli::test_approximate_at_every_parse_limit_at_once``, ``approximate``
# on its 500 probes near the edges makes 12 cuts in ~0.05 s, each
# ``separate`` ~1.1-1.6 ms as it reuses the projection of the membership
# test before it, with 3254 tests of probes against stored cuts at ~8-11 us
# each on integers that large; a public ``membership`` query on a new point
# costs one projection, ~0.8-0.9 ms; the whole run, its excess measure on
# 10**5 points included, takes ~0.07-0.085 s (7 runs in-process, same
# machine).
MAX_DIGITS = 7


def fraction_to_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


# The most characters of a malformed value that an error message echoes.
_SHOWN = 40


def _shown(value) -> str:
    """repr(value) as an error message shows it: whole up to ``_SHOWN``
    characters, else its first ``_SHOWN`` and its length, so that the
    message stays short whatever the input holds."""
    text = repr(value)
    return text if len(text) <= _SHOWN else f"{text[:_SHOWN]}... ({len(text)} characters)"


def _object(obj, what: str, required: tuple[str, ...], optional: tuple[str, ...] | None) -> dict:
    """obj, checked to be an object with every ``required`` key and no key
    outside ``optional`` (None: any), each fault reported by name."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object")
    for key in required:
        if key not in obj:
            raise ValueError(f"{what} is missing field {key!r}")
    if optional is not None:
        extra = set(obj).difference(required, optional)
        if extra:
            raise ValueError(f"unknown {what} fields: {_shown(sorted(extra))}")
    return obj


def _array(obj, what: str, limit: int | None) -> list:
    """obj, checked to be an array of at most ``limit`` entries (None: any)."""
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be an array")
    if limit is not None and len(obj) > limit:
        raise ValueError(f"{what} may have at most {limit} entries, got {len(obj)}")
    return obj


# The one rational format: "p" or "p/q", ASCII digits, a sign only on p.
_FRACTION = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_DIGITS = "a coordinate's numerators and denominators may have at most {} digits"


def _ratio(obj, digits: int | None) -> tuple[int, int]:
    """obj as integers (p, q) with q > 0, not reduced, its numerator and
    denominator of at most ``digits`` digits (None: any) and within the
    interpreter's limit on the digits ``int()`` converts
    (``sys.get_int_max_str_digits``), both checked before ``int()`` runs."""
    if isinstance(obj, bool):
        raise ValueError(f"not a rational: {_shown(obj)}")
    if isinstance(obj, int):
        if digits is not None and abs(obj) >= 10**digits:
            raise ValueError(_DIGITS.format(digits))
        return obj, 1
    if isinstance(obj, str):
        text = obj.strip()
        if not _FRACTION.fullmatch(text):
            raise ValueError(f"not a rational: {_shown(obj)}")
        num, sep, den = text.partition("/")
        longest = max(len(num.lstrip("-")), len(den))
        if digits is not None and longest > digits:
            raise ValueError(_DIGITS.format(digits))
        limit = sys.get_int_max_str_digits()
        if 0 < limit < longest:
            raise ValueError(f"a number's {longest} digits pass the interpreter's limit of {limit}")
        q = int(den) if sep else 1
        if q:
            return int(num), q
    raise ValueError(f"not a rational: {_shown(obj)}")


def parse_fraction(obj, digits: int | None = None) -> Fraction:
    """obj as a Fraction, read by ``_ratio``."""
    return Fraction(*_ratio(obj, digits))


def _field(k, fields: set[int]) -> int:
    """k, checked as a declared field: an integer, then by
    ``scalars._check_field``, which bounds it by ``scalars.MAX_FIELD_K``
    before its square-free test, its message showing k as ``_shown`` does.
    That check runs only for a k not yet in ``fields``, the fields already
    checked in the document being read, and adds k to it, so it runs once
    per distinct k of a parsed instance, set or vector."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"field k must be an integer, got {_shown(k)}")
    if k not in fields:
        try:
            _check_field(k)
        except ValueError as exc:
            raise ValueError(f"{exc}, got {_shown(k)}") from exc
        fields.add(k)
    return k


def parse_coord(obj, digits: int | None = MAX_DIGITS, *, _fields: set[int] | None = None) -> Surd:
    """obj as a Surd.  ``_fields``, here and in ``parse_vector`` and
    ``parse_polyhedron``, is private to this module: the set of fields
    already checked in the document being read, so each k is tested once
    per document.  A caller outside leaves it None, a new set, so every
    k it reads is checked."""
    if isinstance(obj, dict):
        _object(obj, "surd", (), ("r", "s", "k"))
        k = _field(obj.get("k", 1), set() if _fields is None else _fields)
        (a, p), (b, q) = _ratio(obj.get("r", 0), digits), _ratio(obj.get("s", 0), digits)
        return Surd._make(a * q, b * p, p * q, k)
    p, q = _ratio(obj, digits)
    return Surd._make(p, 0, q, 1)


def _part(a: int, m: int) -> str:
    """a/m, for m > 0, as "p/q" in lowest terms."""
    g = gcd(a, m)
    return f"{a // g}/{m // g}"


def vector_to_json(v: Vector) -> list:
    """Each coordinate (a + b*sqrt(k))/m from the pairs (a, b) and ``m``:
    "p/q" when b is 0, else a surd object."""
    m, k = v.m, v.field_k
    return [
        _part(a, m) if not b else {"r": _part(a, m), "s": _part(b, m), "k": k} for a, b in v.pairs
    ]


def parse_vector(obj, digits: int | None = MAX_DIGITS, *, _fields: set[int] | None = None) -> Vector:
    fields = set() if _fields is None else _fields
    return Vector([parse_coord(c, digits, _fields=fields) for c in _array(obj, "a vector", MAX_DIM)])


def polyhedron_to_json(P: VPolyhedron) -> dict:
    return {
        "dim": P.dim,
        "k": P.field_k,
        "vertices": [vector_to_json(v) for v in P.vertices],
        "rays": [vector_to_json(r) for r in P.rays],
    }


def parse_polyhedron(obj, *, _fields: set[int] | None = None) -> VPolyhedron:
    fields = set() if _fields is None else _fields
    _object(obj, "set", ("vertices",), ("dim", "k", "rays"))
    raw_vertices = _array(obj["vertices"], "'vertices'", None)
    raw_rays = _array(obj.get("rays", []), "'rays'", None)
    if len(raw_vertices) + len(raw_rays) > MAX_GENERATORS:
        raise ValueError(f"a set may have at most {MAX_GENERATORS} vertices and rays")
    vertices = [parse_vector(v, _fields=fields) for v in raw_vertices]
    rays = [parse_vector(r, _fields=fields) for r in raw_rays]
    P = VPolyhedron(tuple(vertices), tuple(rays))
    if "dim" in obj:
        dim = obj["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError(f"declared dim must be an integer, got {_shown(dim)}")
        if dim != P.dim:
            raise ValueError(f"declared dim {dim} but coordinates have dim {P.dim}")
    if "k" in obj:
        k = _field(obj["k"], fields)
        if P.field_k not in (1, k):
            raise ValueError(f"declared field k={k} but data uses k={P.field_k}")
    return P


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "a": vector_to_json(cert.a),
        "beta": fraction_to_str(cert.beta),
    }


def parse_certificate(obj) -> Certificate:
    _object(obj, "certificate", ("a", "beta"), ())
    a = Vector([parse_fraction(c) for c in _array(obj["a"], "a certificate's 'a'", MAX_DIM)])
    return Certificate(a, parse_fraction(obj["beta"]))


def _trace_codecs() -> list[tuple[str, str, object, object]]:
    """(field, JSON key, encoder, decoder) per ``SeparationTrace`` field,
    chosen by the field's annotation, a string under ``separation``'s
    ``from __future__ import annotations``; ``lam`` is written as "lambda"."""
    tall_vector = partial(parse_vector, digits=None)
    codecs = {"Vector": (vector_to_json, tall_vector), "Fraction": (fraction_to_str, parse_fraction)}
    return [
        (f.name, "lambda" if f.name == "lam" else f.name, *codecs[f.type])
        for f in fields(SeparationTrace)
    ]


_TRACE_CODECS = _trace_codecs()
_TRACE_KEYS = tuple(key for _, key, _, _ in _TRACE_CODECS)


def trace_to_json(trace: SeparationTrace) -> dict:
    return {key: encode(getattr(trace, name)) for name, key, encode, _ in _TRACE_CODECS}


def parse_trace(obj) -> SeparationTrace:
    _object(obj, "trace", _TRACE_KEYS, ())
    return SeparationTrace(**{name: decode(obj[key]) for name, key, _, decode in _TRACE_CODECS})


def grid_to_json(grid: GridSpec) -> dict:
    return {
        "min": [fraction_to_str(v) for v in grid.mins],
        "max": [fraction_to_str(v) for v in grid.maxs],
        "step": fraction_to_str(grid.step),
    }


def parse_grid(obj) -> GridSpec:
    _object(obj, "grid", ("min", "max", "step"), ())
    mins = tuple(parse_fraction(v) for v in _array(obj["min"], "grid 'min'", 2))
    maxs = tuple(parse_fraction(v) for v in _array(obj["max"], "grid 'max'", 2))
    grid = GridSpec(mins, maxs, parse_fraction(obj["step"]))
    cols, rows = grid.shape
    points = cols * rows
    if points > MAX_GRID_POINTS:
        raise ValueError(f"a grid may have at most {MAX_GRID_POINTS} points, got {points}")
    return grid


def check_count(value, name: str, bound: int) -> int:
    """value as a count, an integer from 1 to ``bound`` (``MAX_DEN`` for the
    brute-force oracle's bound, ``MAX_PROBES`` for a cut budget); ``name``
    is the option as the user wrote it, for the error message."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer")
    if value > bound:
        raise ValueError(f"{name} must be at most {bound}, got {_shown(value)}")
    return value


def approx_to_json(approx: OuterApprox) -> dict:
    return {"cuts": [certificate_to_json(c) for c in approx.cuts]}


def parse_cuts(obj) -> tuple[Certificate, ...]:
    """The cuts of what ``approx_to_json`` writes; other keys, such as the
    ``"excess"`` that ``approximate`` adds, are allowed."""
    _object(obj, "approximation", ("cuts",), None)
    return tuple(parse_certificate(c) for c in _array(obj["cuts"], "'cuts'", MAX_PROBES))


@dataclass(frozen=True)
class InstanceOptions:
    budget: int | None = None
    max_den: int | None = None
    grid: GridSpec | None = None


@dataclass(frozen=True)
class Instance:
    """One parsed problem file: a set plus optional point, probes, options."""

    polyhedron: VPolyhedron
    point: Vector | None = None
    probes: tuple[Vector, ...] = ()
    certificate: Certificate | None = None
    options: InstanceOptions = field(default_factory=InstanceOptions)


def instance_to_json(inst: Instance) -> dict:
    out: dict = {"set": polyhedron_to_json(inst.polyhedron)}
    if inst.point is not None:
        out["point"] = vector_to_json(inst.point)
    if inst.probes:
        out["probes"] = [vector_to_json(p) for p in inst.probes]
    if inst.certificate is not None:
        out["certificate"] = certificate_to_json(inst.certificate)
    options: dict = {}
    if inst.options.budget is not None:
        options["budget"] = inst.options.budget
    if inst.options.max_den is not None:
        options["max_den"] = inst.options.max_den
    if inst.options.grid is not None:
        options["grid"] = grid_to_json(inst.options.grid)
    if options:
        out["options"] = options
    return out


def parse_instance(obj) -> Instance:
    _object(obj, "instance", ("set",), ("point", "probes", "certificate", "options"))
    raw_probes = _array(obj.get("probes", []), "'probes'", MAX_PROBES)
    fields: set[int] = set()
    polyhedron = parse_polyhedron(obj["set"], _fields=fields)
    point = parse_vector(obj["point"], _fields=fields) if "point" in obj else None
    probes = tuple(parse_vector(p, _fields=fields) for p in raw_probes)
    certificate = (
        parse_certificate(obj["certificate"]) if "certificate" in obj else None
    )
    opts = _object(obj.get("options", {}), "options", (), ("budget", "max_den", "grid"))
    budget = max_den = None
    if "budget" in opts:
        budget = check_count(opts["budget"], "options.budget", MAX_PROBES)
    if "max_den" in opts:
        max_den = check_count(opts["max_den"], "options.max_den", MAX_DEN)
    grid = parse_grid(opts["grid"]) if "grid" in opts else None
    return Instance(
        polyhedron=polyhedron,
        point=point,
        probes=probes,
        certificate=certificate,
        options=InstanceOptions(budget=budget, max_den=max_den, grid=grid),
    )


def dumps(payload: dict) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
