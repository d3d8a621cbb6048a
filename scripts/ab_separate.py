#!/usr/bin/env python3
"""Time ``separate`` or a sweep of this checkout against another source tree, call by call.

    python scripts/ab_separate.py --against DIR [--workload W] [--seed S] [--count N] [--rounds R]

This checkout's ``src/ratsep`` is imported as ``ratsep`` and DIR's
``src/ratsep`` as a second package, ``ratsep_against``, in the same
process.  The instances are those of ``perfbench/gen.py`` for the
``separate_rays`` and ``separate_bigk`` workloads, or for the one named
by ``--workload``; only that file of ``perfbench/`` is imported.  Each
round parses every instance afresh in each tree, outside the timed
call, and times ``separate`` in both trees on it, the tree that goes
first alternating from call to call, so a machine whose speed drifts or
flips slows both sides alike.

``--workload approx_sweep`` times the sweeps of that workload instead,
which run the Gram solves and the double description that ``separate``
on the other two seldom reaches.  A sweep is timed as
``perfbench/worker.py`` times it: ``outer_approximate`` on a freshly
parsed sweep, then ``excess_measure`` after every prefix of its cuts, one
call per column of the sweep's grid, with the columns and the prefixes
built outside the timed calls.  Its lines give the total,
``outer_approximate`` alone and the ``excess_measure`` calls alone, and
the cuts and every column's excess after every prefix must serialize to
the same bytes in both trees.  That workload has at most 101 sweeps, so
``--count`` defaults to 100 there.  One more line gives each tree's
median and p90 time of one ``excess_measure`` call, the statistics that
``perfbench`` reports as ``latency_ms.p50`` and ``latency_ms.p90`` there,
and their ratios; it goes to standard error, so standard output keeps
one line per total.

``--workload limits`` times ``separate`` on instances at every parse
limit at once, one instance per seed from ``--seed`` on (``--count``
defaults to 3 there), built by ``limit_instances``, which
``tests/test_cli.py``'s ``test_separate_at_every_parse_limit_at_once``
calls for its one, seed 1's: ``MAX_GENERATORS`` vertices in
dimension ``MAX_DIM`` over Q(sqrt 999999999998), every r and s part
with ``MAX_DIGITS``-digit numerators and denominators, and a point just
outside a facet, so that the projection makes the largest Gram solves a
parsed set allows.  They are built by this checkout and parsed in each
tree like the others.

Each timed call first runs ``is_pointed`` on the fresh set, which solves
the set's margin LP and keeps it, then ``membership`` of the point,
which runs Wolfe's projection and keeps the nearest point, and then
``separate``, which reads the kept LP and point, so the LP and Wolfe's
run are also timed on their own.  Every call's certificate and trace
must serialize to the same bytes in both trees; the first difference
exits 1.  Otherwise each workload's line gives the two total times of
``separate``, the LP and Wolfe's run included, and their ratio, this
checkout over DIR, then the same for the margin LP alone, and then for
the stages of ``separate`` without it, its total minus the LP's time:
on ``separate_rays`` the LP is nearly half of a call, so a change to
the other stages shows more plainly there.  Two more lines, on standard
error, give the same for Wolfe's run alone, ``<workload>.membership``,
and each tree's median and p90 time of one whole call, LP and Wolfe's
run included, with their ratios, ``<workload>.separate.per_call``: the
statistics that ``perfbench`` reports as ``latency_ms.p50`` and
``latency_ms.p90``, in the format of the sweeps' per-call line.

A count or a number of rounds below 1, or more than 101 sweeps, is a
usage error (exit 2); exit 1 is kept for outputs that differ.
"""

import argparse
import importlib.util
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("separate_rays", "separate_bigk")
SWEEPS = "approx_sweep"
LIMITS = "limits"
# the largest square-free k at most serialization.MAX_FIELD_K: 2 * 499999999999
BIG_K = 999_999_999_998
# the distinct sweeps that perfbench/gen.py's approx_sweep makes
MAX_SWEEPS = 101


def load(name: str, path: Path):
    """The module or package at path, imported under name."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if path.is_dir() else path,
        submodule_search_locations=[str(path)] if path.is_dir() else None,
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def at_least_one(text: str) -> int:
    """The int of text, an argparse type that rejects values below 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def timed_separate(r, obj) -> tuple[float, tuple[float, float], str]:
    """Seconds of one ``separate`` on a freshly parsed instance, its margin
    LP and Wolfe's run included, the seconds of that LP alone and of
    Wolfe's run alone, and the canonical JSON of the certificate and
    trace."""
    ser = importlib.import_module(f"{r.__name__}.serialization")
    inst = ser.parse_instance(obj)
    X, y = inst.polyhedron, inst.point
    t0 = perf_counter()
    r.is_pointed(X)
    t1 = perf_counter()
    r.membership(X, y)
    t2 = perf_counter()
    cert, trace = r.separate(X, y)
    t3 = perf_counter()
    return t3 - t0, (t1 - t0, t2 - t1), ser.dumps(
        {"certificate": ser.certificate_to_json(cert), "trace": ser.trace_to_json(trace)}
    )


def timed_sweep(r, obj, calls: list[float]) -> tuple[float, tuple[float], str]:
    """Seconds of ``outer_approximate`` on a freshly parsed sweep plus
    those of each ``excess_measure`` call after every cut prefix on each
    column of the sweep's grid, the seconds of ``outer_approximate``
    alone, and the canonical JSON of the cuts and of every call's exact
    excess.  The seconds of each ``excess_measure`` call are appended to
    calls."""
    ser = importlib.import_module(f"{r.__name__}.serialization")
    inst = ser.parse_instance(obj)
    X, grid = inst.polyhedron, inst.options.grid
    xs = (grid.mins[0] + grid.step * i for i in range(grid.shape[0]))
    columns = [r.GridSpec((x, grid.mins[1]), (x, grid.maxs[1]), grid.step) for x in xs]
    t0 = perf_counter()
    approx = r.outer_approximate(X, inst.probes, inst.options.budget)
    outer = perf_counter() - t0
    seconds, excess = outer, []
    for j in range(len(approx.cuts) + 1):
        prefix = r.approximation.OuterApprox(X, approx.cuts[:j])
        for column in columns:
            t0 = perf_counter()
            value = r.excess_measure(X, prefix, column)
            calls.append(perf_counter() - t0)
            seconds += calls[-1]
            excess.append(ser.fraction_to_str(value))
    return seconds, (outer,), ser.dumps({**ser.approx_to_json(approx), "excess": excess})


def rounded(x: Fraction, digits: int) -> Fraction:
    """x as a decimal fraction within ``digits`` digits (|x| < 10**(digits - 1))."""
    e = digits - 1 - len(str(abs(x.numerator) // x.denominator))
    return Fraction(round(x * 10**e), 10**e)


def limit_instances(r, seed: int, count: int) -> list:
    """The instance JSON of ``count`` parse-limit instances, seeds seed,
    seed + 1, ..., built by the package r (see the module docstring)."""
    ser = importlib.import_module(f"{r.__name__}.serialization")
    d, m, digits = ser.MAX_DIM, ser.MAX_GENERATORS, ser.MAX_DIGITS
    lo, hi = 10 ** (digits - 1), 10**digits
    instances = []
    for rng in map(Random, range(seed, seed + count)):

        def part():
            return Fraction(rng.choice((-1, 1)) * rng.randrange(lo, hi), rng.randrange(lo, hi))

        P = r.VPolyhedron(
            tuple(r.Vector([r.Surd(part(), part(), BIG_K) for _ in range(d)]) for _ in range(m))
        )
        a, b = P.facet_description.facets[0]
        on = [v for v in P.vertices if (a.dot(v) - b).sign() == 0]
        # pushed by ~1000 along the facet's normal from the centroid of its vertices: far above
        # the rounding error of the sqrt(k) parts (< sqrt(k) / 10**(digits - 2) ~ 10), far
        # below the coordinates (~10**6)
        y = Fraction(1, len(on)) * sum(on[1:], on[0])
        y += Fraction(1000) / max(abs(x.r) + abs(x.s) * 10**6 for x in a) * a
        y = r.Vector([r.Surd(rounded(x.r, digits), rounded(x.s, digits), BIG_K) for x in y])
        instances.append(ser.instance_to_json(ser.Instance(polyhedron=P, point=y)))
    return instances


def ratio_line(name: str, times, calls: str) -> str:
    """The line of one timed part: both trees' seconds and their ratio."""
    this, against = times
    return f"{name}: this {this:.3f} s, against {against:.3f} s, ratio {this / against:.3f} {calls}"


def per_call_line(name: str, per_call) -> str:
    """The line of one timed call's median and p90 in both trees, in
    microseconds, and their ratios, this checkout over the other.  The p90
    is ``perfbench``'s, the ninth decile; a single call is its own."""
    (this50, this90), (against50, against90) = (
        (statistics.median(c) * 1e6, (statistics.quantiles(c, n=10)[8] if len(c) > 1 else c[0]) * 1e6)
        for c in per_call
    )
    return (f"{name}.per_call: this p50 {this50:.3f} us, "
            f"p90 {this90:.3f} us, against p50 {against50:.3f} us, p90 {against90:.3f} us, "
            f"ratio p50 {this50 / against50:.3f}, p90 {this90 / against90:.3f} "
            f"over {len(per_call[0])} calls")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path, required=True, help="root of the other source tree")
    ap.add_argument("--workload", choices=(*WORKLOADS, SWEEPS, LIMITS),
                    help="time this workload only; the two separate_* workloads by default")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--count", type=at_least_one,
                    help=f"instances per workload (240; 100 for {SWEEPS}, 3 for {LIMITS})")
    ap.add_argument("--rounds", type=at_least_one, default=3)
    args = ap.parse_args(argv)
    if args.workload == SWEEPS and (args.count or 0) > MAX_SWEEPS:
        ap.error(f"argument --count: {SWEEPS} has at most {MAX_SWEEPS} sweeps, got {args.count}")
    sys.path.insert(0, str(ROOT / "src"))
    trees = [load("ratsep", ROOT / "src" / "ratsep"),
             load("ratsep_against", args.against / "src" / "ratsep")]
    gen = load("perfbench_gen", ROOT / "perfbench" / "gen.py")
    for workload in [args.workload] if args.workload else WORKLOADS:
        if workload == SWEEPS:
            call, parts, unit = timed_sweep, ("outer_approximate", "excess_measure"), "sweeps"
        else:
            call, parts, unit = timed_separate, ("margin_lp", "stages"), "calls"
        count = args.count or {SWEEPS: 100, LIMITS: 3}.get(workload, 240)
        if workload == LIMITS:
            instances = limit_instances(trees[0], args.seed, count)
        else:
            instances = getattr(gen, workload)(args.seed, count)
        # totals[side], and part_totals[j][side] for the j-th timed part of a call
        totals, part_totals, per_call = [0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]], ([], [])
        for rnd in range(args.rounds):
            for i, obj in enumerate(instances):
                order = (0, 1) if (i + rnd) % 2 == 0 else (1, 0)
                out = {}
                for side in order:
                    extra = (per_call[side],) if workload == SWEEPS else ()
                    seconds, parts_seconds, out[side] = call(trees[side], obj, *extra)
                    if workload != SWEEPS:
                        per_call[side].append(seconds)
                    totals[side] += seconds
                    for j, part_seconds in enumerate(parts_seconds):
                        part_totals[j][side] += part_seconds
                if out[0] != out[1]:
                    print(f"{workload}: instance {i} differs between the trees", file=sys.stderr)
                    return 1
        calls = f"over {args.rounds} x {len(instances)} {unit}"
        first = part_totals[0]
        rest = [total - first_total for total, first_total in zip(totals, first)]
        lines = ((workload, totals), (f"{workload}.{parts[0]}", first), (f"{workload}.{parts[1]}", rest))
        for name, times in lines:
            print(ratio_line(name, times, calls))
        if workload == SWEEPS:
            print(per_call_line(f"{workload}.excess_measure", per_call), file=sys.stderr)
        else:
            print(ratio_line(f"{workload}.membership", part_totals[1], calls), file=sys.stderr)
            print(per_call_line(f"{workload}.separate", per_call), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
