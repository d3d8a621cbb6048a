"""Exact JSON encoding of instances, certificates, traces and results.

Numbers travel as canonical strings "p/q" (q > 0, lowest terms) or surd
objects {"r": "p/q", "s": "p/q", "k": int}; floats never enter the
format, so parse(serialize(x)) == x holds exactly.  Rational
coordinates are written as plain strings, irrational ones as surd
objects; the parser accepts either form anywhere a coordinate appears.
``dumps`` renders with sorted keys and fixed separators so equal data
serializes to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import get_type_hints

from .approximation import GridSpec, OuterApprox
from .certificates import Certificate
from .scalars import Surd, Vector
from .separation import SeparationTrace
from .sets import VPolyhedron

__all__ = [
    "Instance",
    "InstanceOptions",
    "fraction_to_str",
    "parse_fraction",
    "coord_to_json",
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
    "instance_to_json",
    "parse_instance",
    "dumps",
]


# The largest field k the parser accepts.  Its square-free check then costs
# at most ~MAX_FIELD_K**(1/3) = 10**4 trial divisions; without a bound a
# huge k would hang the parse.
MAX_FIELD_K = 10**12
# The largest dimension d and generator count m (vertices plus rays) of a
# parsed set.  The facet count can grow like m**(d // 2), and ``project``
# tries up to C(m, <= d) generator subsets.  At these bounds the facet
# description of the cyclic polytope (12 points on the moment curve in
# dimension 6, 112 facets) takes ~0.1 s, and separating a point just
# outside one of its facets ~8 s, nearly all of it in ``project``.
MAX_DIM = 6
MAX_GENERATORS = 12
# The largest height bound of the 2-D brute-force oracle (``options.max_den``,
# ``separate --max-den``) and the largest grid (``options.grid``, ``--grid``)
# of the excess measure.  The oracle scans O(max_den**4) normals; a full scan
# that finds none (a point just outside the sqrt(2) edge of the README
# triangle) takes ~14 s at 32.  The excess measure counts the grid one line
# at a time, along the longer axis: at 10**5 points (316 x 316) it takes
# ~0.01 s with no cuts and ~0.02 s with the 11 cuts of the README triangle
# (2-core machine, Python 3.11).
MAX_DEN = 32
MAX_GRID_POINTS = 10**5
# The longest probe list (``probes``) of an instance, checked before any
# vector is parsed, and the largest cut budget (``options.budget``,
# ``approximate --budget``): each cut needs a probe of its own, so no run
# can use more.  Each probe can cost one ``separate``: on the 2- to
# 4-dimensional sets with rays of the benchmark (``perfbench/gen.py``) one
# call takes ~27 ms at the median and ~66 ms at the 90th percentile, so 500
# probes can take ~13 s to ~33 s (same machine).
MAX_PROBES = 500


def fraction_to_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(obj) -> Fraction:
    if isinstance(obj, bool):
        raise ValueError(f"not a rational: {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        text = obj.strip()
        num, sep, den = text.partition("/")
        try:
            if sep:
                return Fraction(int(num), int(den))
            return Fraction(int(num))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {obj!r}") from exc
    raise ValueError(f"not a rational: {obj!r}")


def coord_to_json(c: Surd):
    if c.is_rational:
        return fraction_to_str(c.as_fraction())
    return {"r": fraction_to_str(c.r), "s": fraction_to_str(c.s), "k": c.k}


def parse_coord(obj) -> Surd:
    if isinstance(obj, dict):
        extra = set(obj) - {"r", "s", "k"}
        if extra:
            raise ValueError(f"unknown surd fields: {sorted(extra)}")
        k = obj.get("k", 1)
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"field k must be an integer, got {k!r}")
        if k > MAX_FIELD_K:
            raise ValueError(f"field k must be at most {MAX_FIELD_K}, got {k}")
        return Surd(parse_fraction(obj.get("r", 0)), parse_fraction(obj.get("s", 0)), k)
    return Surd(parse_fraction(obj))


def vector_to_json(v: Vector) -> list:
    return [coord_to_json(c) for c in v]


def parse_vector(obj) -> Vector:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"a vector must be a nonempty array, got {obj!r}")
    return Vector([parse_coord(c) for c in obj])


def polyhedron_to_json(P: VPolyhedron) -> dict:
    return {
        "dim": P.dim,
        "k": P.field_k,
        "vertices": [vector_to_json(v) for v in P.vertices],
        "rays": [vector_to_json(r) for r in P.rays],
    }


def parse_polyhedron(obj) -> VPolyhedron:
    if not isinstance(obj, dict):
        raise ValueError("a set description must be an object")
    if "vertices" not in obj:
        raise ValueError("set description is missing 'vertices'")
    raw_vertices, raw_rays = obj["vertices"], obj.get("rays", [])
    if not isinstance(raw_vertices, list) or not isinstance(raw_rays, list):
        raise ValueError("'vertices' and 'rays' must be arrays")
    if len(raw_vertices) + len(raw_rays) > MAX_GENERATORS:
        raise ValueError(f"a set may have at most {MAX_GENERATORS} vertices and rays")
    if any(isinstance(g, list) and len(g) > MAX_DIM for g in (*raw_vertices, *raw_rays)):
        raise ValueError(f"a set may have dimension at most {MAX_DIM}")
    vertices = [parse_vector(v) for v in raw_vertices]
    rays = [parse_vector(r) for r in raw_rays]
    P = VPolyhedron(tuple(vertices), tuple(rays))
    if "dim" in obj:
        dim = obj["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError(f"declared dim must be an integer, got {dim!r}")
        if dim != P.dim:
            raise ValueError(f"declared dim {dim} but coordinates have dim {P.dim}")
    if "k" in obj:
        # the declared field passes the checks of a coordinate's field
        k = parse_coord({"s": 1, "k": obj["k"]}).k
        if P.field_k not in (1, k):
            raise ValueError(f"declared field k={k} but data uses k={P.field_k}")
    return P


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "a": [fraction_to_str(f) for f in cert.a.as_fractions()],
        "beta": fraction_to_str(cert.beta),
    }


def parse_certificate(obj) -> Certificate:
    if not isinstance(obj, dict) or "a" not in obj or "beta" not in obj:
        raise ValueError("a certificate needs fields 'a' and 'beta'")
    raw_a = obj["a"]
    if not isinstance(raw_a, list):
        raise ValueError("a certificate's 'a' must be an array")
    if len(raw_a) > MAX_DIM:
        raise ValueError(f"a certificate may have dimension at most {MAX_DIM}")
    a = Vector([parse_fraction(c) for c in raw_a])
    return Certificate(a, parse_fraction(obj["beta"]))


def _trace_codecs() -> list[tuple[str, str, object, object]]:
    """(field, JSON key, encoder, decoder) per ``SeparationTrace`` field,
    chosen by the field's declared type; ``lam`` is written as "lambda"."""
    codecs = {Vector: (vector_to_json, parse_vector), Fraction: (fraction_to_str, parse_fraction)}
    hints = get_type_hints(SeparationTrace)
    return [
        (f.name, "lambda" if f.name == "lam" else f.name, *codecs[hints[f.name]])
        for f in fields(SeparationTrace)
    ]


_TRACE_CODECS = _trace_codecs()


def trace_to_json(trace: SeparationTrace) -> dict:
    return {key: encode(getattr(trace, name)) for name, key, encode, _ in _TRACE_CODECS}


def parse_trace(obj) -> SeparationTrace:
    if not isinstance(obj, dict):
        raise ValueError("a trace must be an object")
    try:
        return SeparationTrace(
            **{name: decode(obj[key]) for name, key, _, decode in _TRACE_CODECS}
        )
    except KeyError as exc:
        raise ValueError(f"trace is missing field {exc.args[0]!r}") from exc


def grid_to_json(grid: GridSpec) -> dict:
    return {
        "min": [fraction_to_str(v) for v in grid.mins],
        "max": [fraction_to_str(v) for v in grid.maxs],
        "step": fraction_to_str(grid.step),
    }


def parse_grid(obj) -> GridSpec:
    if not isinstance(obj, dict):
        raise ValueError("a grid must be an object")
    try:
        raw_mins, raw_maxs, raw_step = obj["min"], obj["max"], obj["step"]
    except KeyError as exc:
        raise ValueError(f"grid is missing field {exc.args[0]!r}") from exc
    if not isinstance(raw_mins, list) or not isinstance(raw_maxs, list):
        raise ValueError("grid 'min' and 'max' must be arrays")
    mins = tuple(parse_fraction(v) for v in raw_mins)
    maxs = tuple(parse_fraction(v) for v in raw_maxs)
    grid = GridSpec(mins, maxs, parse_fraction(raw_step))
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
        raise ValueError(f"{name} must be at most {bound}, got {value}")
    return value


def approx_to_json(approx: OuterApprox) -> dict:
    return {"cuts": [certificate_to_json(c) for c in approx.cuts]}


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
    if not isinstance(obj, dict) or "set" not in obj:
        raise ValueError("an instance needs a 'set' field")
    raw_probes = obj.get("probes", [])
    if not isinstance(raw_probes, list):
        raise ValueError("'probes' must be an array")
    if len(raw_probes) > MAX_PROBES:
        raise ValueError(f"an instance may have at most {MAX_PROBES} probes, got {len(raw_probes)}")
    polyhedron = parse_polyhedron(obj["set"])
    point = parse_vector(obj["point"]) if "point" in obj else None
    probes = tuple(parse_vector(p) for p in raw_probes)
    certificate = (
        parse_certificate(obj["certificate"]) if "certificate" in obj else None
    )
    raw_opts = obj.get("options", {})
    if not isinstance(raw_opts, dict):
        raise ValueError("'options' must be an object")
    budget = raw_opts.get("budget")
    if budget is not None:
        check_count(budget, "options.budget", MAX_PROBES)
    max_den = raw_opts.get("max_den")
    if max_den is not None:
        check_count(max_den, "options.max_den", MAX_DEN)
    grid = parse_grid(raw_opts["grid"]) if "grid" in raw_opts else None
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
