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

Each timed call first runs ``is_pointed`` on the fresh set, which solves
the set's margin LP and keeps it, and then ``separate``, which reads the
kept LP, so the LP is also timed on its own.  Every call's certificate
and trace must serialize to the same bytes in both trees; the first
difference exits 1.  Otherwise each workload's line gives the two total
times of ``separate``, the LP included, and their ratio, this checkout
over DIR, then the same for the margin LP alone, and then for the stages
of ``separate`` without it, its total minus the LP's time: on
``separate_rays`` the LP is nearly half of a call, so a change to the
other stages shows more plainly there.
"""

import argparse
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("separate_rays", "separate_bigk")
SWEEPS = "approx_sweep"


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


def timed_separate(r, obj) -> tuple[float, float, str]:
    """Seconds of one ``separate`` on a freshly parsed instance, its margin
    LP included, the seconds of that LP alone, and the canonical JSON of
    the certificate and trace."""
    ser = importlib.import_module(f"{r.__name__}.serialization")
    inst = ser.parse_instance(obj)
    t0 = perf_counter()
    r.is_pointed(inst.polyhedron)
    t1 = perf_counter()
    cert, trace = r.separate(inst.polyhedron, inst.point)
    t2 = perf_counter()
    return t2 - t0, t1 - t0, ser.dumps(
        {"certificate": ser.certificate_to_json(cert), "trace": ser.trace_to_json(trace)}
    )


def timed_sweep(r, obj, calls: list[float]) -> tuple[float, float, str]:
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
    return seconds, outer, ser.dumps({**ser.approx_to_json(approx), "excess": excess})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path, required=True, help="root of the other source tree")
    ap.add_argument("--workload", choices=(*WORKLOADS, SWEEPS),
                    help="time this workload only; the two separate_* workloads by default")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--count", type=int, help=f"instances per workload (240; 100 for {SWEEPS})")
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    trees = [load("ratsep", ROOT / "src" / "ratsep"),
             load("ratsep_against", args.against / "src" / "ratsep")]
    gen = load("perfbench_gen", ROOT / "perfbench" / "gen.py")
    for workload in [args.workload] if args.workload else WORKLOADS:
        if workload == SWEEPS:
            call, parts, unit = timed_sweep, ("outer_approximate", "excess_measure"), "sweeps"
        else:
            call, parts, unit = timed_separate, ("margin_lp", "stages"), "calls"
        count = args.count or (100 if workload == SWEEPS else 240)
        instances = getattr(gen, workload)(args.seed, count)
        totals, first, per_call = [0.0, 0.0], [0.0, 0.0], ([], [])
        for rnd in range(args.rounds):
            for i, obj in enumerate(instances):
                order = (0, 1) if (i + rnd) % 2 == 0 else (1, 0)
                out = {}
                for side in order:
                    extra = (per_call[side],) if workload == SWEEPS else ()
                    seconds, first_seconds, out[side] = call(trees[side], obj, *extra)
                    totals[side] += seconds
                    first[side] += first_seconds
                if out[0] != out[1]:
                    print(f"{workload}: instance {i} differs between the trees", file=sys.stderr)
                    return 1
        calls = f"over {args.rounds} x {len(instances)} {unit}"
        rest = [total - first_total for total, first_total in zip(totals, first)]
        lines = ((workload, totals), (f"{workload}.{parts[0]}", first), (f"{workload}.{parts[1]}", rest))
        for name, (this, against) in lines:
            print(f"{name}: this {this:.3f} s, against {against:.3f} s, "
                  f"ratio {this / against:.3f} {calls}")
        if workload == SWEEPS:
            (this50, this90), (against50, against90) = (
                (statistics.median(c) * 1e6, statistics.quantiles(c, n=10)[8] * 1e6)
                for c in per_call
            )
            print(f"{workload}.excess_measure.per_call: this p50 {this50:.3f} us, "
                  f"p90 {this90:.3f} us, against p50 {against50:.3f} us, p90 {against90:.3f} us, "
                  f"ratio p50 {this50 / against50:.3f}, p90 {this90 / against90:.3f} "
                  f"over {len(per_call[0])} calls", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
