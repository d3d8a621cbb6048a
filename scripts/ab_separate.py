#!/usr/bin/env python3
"""Time ``separate`` of this checkout against another source tree, call by call.

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
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("separate_rays", "separate_bigk")


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


def timed_call(r, obj) -> tuple[float, float, str]:
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path, required=True, help="root of the other source tree")
    ap.add_argument("--workload", choices=WORKLOADS, help="time this workload only; both by default")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--count", type=int, default=240, help="instances per workload")
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    trees = [load("ratsep", ROOT / "src" / "ratsep"),
             load("ratsep_against", args.against / "src" / "ratsep")]
    gen = load("perfbench_gen", ROOT / "perfbench" / "gen.py")
    for workload in [args.workload] if args.workload else WORKLOADS:
        instances = getattr(gen, workload)(args.seed, args.count)
        totals, lp = [0.0, 0.0], [0.0, 0.0]
        for rnd in range(args.rounds):
            for i, obj in enumerate(instances):
                order = (0, 1) if (i + rnd) % 2 == 0 else (1, 0)
                out = {}
                for side in order:
                    seconds, lp_seconds, out[side] = timed_call(trees[side], obj)
                    totals[side] += seconds
                    lp[side] += lp_seconds
                if out[0] != out[1]:
                    print(f"{workload}: instance {i} differs between the trees", file=sys.stderr)
                    return 1
        calls = f"over {args.rounds} x {len(instances)} calls"
        stages = [total - lp_total for total, lp_total in zip(totals, lp)]
        lines = ((workload, totals), (f"{workload}.margin_lp", lp), (f"{workload}.stages", stages))
        for name, (this, against) in lines:
            print(f"{name}: this {this:.3f} s, against {against:.3f} s, "
                  f"ratio {this / against:.3f} {calls}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
