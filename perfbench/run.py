#!/usr/bin/env python3
"""Benchmark of ratsep: exact separation workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports ratsep from the src/ directory beside perfbench/.
Workloads (closed loop, one caller, one workload at a time):

  separate_rays  separate() on seeded pointed polyhedra with 1-4 rays
  separate_bigk  separate() on seeded polytopes over Q(sqrt(1000003))
  approx_sweep   outer_approximate() on conv{(0,0), (sqrt2,0), (0,1)},
                 then excess_measure() after every cut prefix
  all            the three above, one after another

The inputs are generated here from the seed (gen.py), written as
instance JSON and parsed by fresh worker processes (worker.py), so every
pass starts with a cold membership cache.

--trace 0 reports the end-to-end metrics.  PASSES fresh processes each
run their own slice of the seeded instances for S/PASSES seconds, so a
run measures PASSES times as many distinct instances as one pass holds.
A shared machine's speed can drift by 2x over seconds to minutes, so
each timed segment (a separate call, an excess_measure call on one grid
column, an outer_approximate call) is scaled to a reference speed by a
short speed probe run next to it; the metrics pool the scaled segments
of all passes.  Set-up time, scaled the same way, is the median over the
PASSES processes, from process start to the first timed call.  The
unscaled figures are printed too.

--trace 1 runs the first pass untraced for S/PASSES seconds, then a traced
process (tracer.py) on the same units and reports the per-layer metrics,
their times scaled by the traced process's median speed probe.  A
layer's figures come from the spans of the timed units only, except for
layers the timed units never reach (phase_of): parsing is read from
set-up, verification from the checks and, on the separate_* workloads,
approximation from the fixture.

Every output is checked exactly; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
Generated inputs, per-pass timings and span files go to
.bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import gen  # noqa: E402

WORKLOADS = ("separate_rays", "separate_bigk", "approx_sweep")
PASSES = 4  # fresh processes, each on its own slice of the instances
# The speed probe's typical time (worker.speed_probe) on the 2-vCPU
# virtual machine, Python 3.11.7, on which the baseline was recorded.
# Timings are reported as if the machine always ran at that speed.
PROBE_REF_S = 0.002
REFERENCE_SEED, REFERENCE_COUNT = 0, 8
# Ops per second the generated inputs must sustain without reuse: about
# three times the rate measured when the benchmark was written.
INPUT_RATE = {"separate_rays": 66, "separate_bigk": 50, "approx_sweep": 0.6}
MIN_CALLS = 100
CHILD_TIMEOUT = 170

# exterior points of the README triangle (gen.TRIANGLE) on none of the
# workload grids, so the CLI calls start cold
CLI_POINTS = [["4/3", "4/3"], ["7/3", "1/3"], ["-1/3", "-2/3"], ["1/3", "7/3"], ["-2/3", "1/3"]]

SPANS = (
    "scalars.sqrt_enclosure", "scalars.rational_in_ball", "scalars.choose_rational_between",
    "linalg.simplex_max", "linalg.solve_linear_system",
    "sets.membership", "sets.project", "sets.is_pointed", "sets.support_value",
    "separation.separate", "separation.validate", "separation.project", "separation.barrier",
    "separation.bound", "separation.wedge", "separation.witness",
    "approximation.outer_approximate", "approximation.excess_measure",
    "certificates.verify_certificate", "serialization.parse_instance",
)


def phase_of(workload: str, span: str) -> str:
    """The phase of the traced process whose spans give a layer's figures:
    the timed units, except for layers only set-up, the checks or the
    fixture reach on that workload."""
    if span == "serialization.parse_instance":
        return "setup"
    if span == "certificates.verify_certificate":
        return "check"
    if span.startswith("approximation.") and workload != "approx_sweep":
        return "fixture"
    return "timed"


# -- inputs ------------------------------------------------------------------


def expected(workload: str) -> dict:
    """Outputs recorded on the seed commit (perfbench/expected.json)."""
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))[workload]


def min_units(workload: str) -> int:
    """Whole blocks holding at least MIN_CALLS separate calls, or one sweep."""
    block = gen.BLOCK[workload]
    return 1 if workload == "approx_sweep" else math.ceil(MIN_CALLS / block) * block


def input_count(workload: str, seconds: float) -> int:
    """Whole blocks covering min_units and INPUT_RATE for one pass, plus
    one block of slack."""
    block = gen.BLOCK[workload]
    need = max(min_units(workload), seconds / PASSES * INPUT_RATE[workload])
    return (math.ceil(need / block) + 1) * block


def write_inputs(workload: str, seed: int, seconds: float) -> list[Path]:
    """One input file per pass: the pass's slice of the timed instances,
    the reference instances, recorded outputs and the layer fixture.
    Slices are whole blocks, and the first starts with the unshifted sweep
    on approx_sweep."""
    generate = gen.GENERATORS[workload]
    cli_instance = WORK / "readme_triangle.json"
    triangle = gen.ser.instance_to_json(gen.ser.Instance(polyhedron=gen.TRIANGLE))
    cli_instance.write_text(json.dumps(triangle), encoding="utf-8")
    count = input_count(workload, seconds)
    timed = generate(seed, PASSES * count)
    common = {
        "workload": workload,
        "block": gen.BLOCK[workload],
        "min_units": min_units(workload),
        # the unshifted sweep is the reference of approx_sweep
        "reference": [] if workload == "approx_sweep" else generate(REFERENCE_SEED, REFERENCE_COUNT),
        "expected": expected(workload),
        "fixture": {"cli_instance": str(cli_instance), "cli_points": CLI_POINTS,
                    "sweep": gen.sweep_instance((0, 0))},
    }
    paths = []
    for i in range(PASSES):
        path = WORK / f"run-{workload}-seed{seed}-pass{i}.json"
        inputs = {**common, "pass": i, "timed": timed[i * count:(i + 1) * count]}
        path.write_text(json.dumps(inputs), encoding="utf-8")
        paths.append(path)
    return paths


# -- child processes ---------------------------------------------------------


def child(inputs: Path, mode: str, seconds: float = 0.0, ops: int | None = None,
          spans: Path | None = None) -> tuple[dict, float]:
    """Run one worker to completion; returns (its JSON, monotonic start)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs),
           "--mode", mode, "--seconds", repr(seconds)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def at_reference_speed(p: dict, key: str) -> list[float]:
    """A pass's timed segments ("latency" or "extra"), each scaled by
    PROBE_REF_S over the speed probe taken right after it."""
    probes = p["probes_s"]
    return [t * PROBE_REF_S / probes[j] for t, j in zip(p[f"{key}_s"], p[f"{key}_probe"])]


def pooled(passes: list[dict], key: str, scaled: bool = True) -> list[float]:
    """The timed segments ("latency" or "extra") of all passes."""
    return [t for p in passes for t in (at_reference_speed(p, key) if scaled else p[f"{key}_s"])]


def untraced(workload: str, inputs: list[Path], seed: int, seconds: float) -> tuple[dict, dict]:
    """PASSES fresh processes, each on its own inputs for seconds/PASSES.
    Each also gives a set-up sample."""
    setups, passes = [], []
    for path in inputs:
        out, started = child(path, "measure", seconds=seconds / PASSES)
        setups.append((out["ready_at"] - started) * PROBE_REF_S / out["ready_probe_s"])
        passes.append(out)
    (WORK / f"raw-{workload}-seed{seed}.json").write_text(
        json.dumps({"setups": setups, "passes": passes}), encoding="utf-8")

    first = passes[0]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    ops = sum(n for p in passes for n in p["latency_ops"])

    def timing(scaled: bool) -> dict:
        lat = pooled(passes, "latency", scaled)
        lat_ms = [t * 1e3 for t in lat]
        return {
            "ops_per_s": (ops / (sum(lat) + sum(pooled(passes, "extra", scaled))), "1/s"),
            "latency_ms.p50": (statistics.median(lat_ms), "ms"),
            "latency_ms.p90": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        }

    bits = [b for p in passes for b in p["cert_bits"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        **timing(scaled=True),
        "cert_bits.p50": (statistics.median(bits), "bits"),
        "cert_bits.max": (max(bits), "bits"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }
    unit = "sweeps" if workload == "approx_sweep" else "calls"
    verdict = "matches" if first["digest"] == expected(workload)["reference_digest"] else "differs from"
    probes = [t for p in passes for t in p["probes_s"]]
    info = {
        "fail_ratio": failed / attempted,
        "samples": f"{sum(len(p['latency_s']) for p in passes)} latencies; "
                   f"{' '.join(str(p['units']) for p in passes)} {unit} in the {PASSES} passes; "
                   f"first pass {first['wall_s']:.2f} s",
        "machine_speed": f"{PROBE_REF_S / statistics.median(probes):.3f} of the reference "
                         f"(median of {len(probes)} speed probes)",
        **{f"unscaled {name}": f"{value:.6g} {unit_}"
           for name, (value, unit_) in timing(scaled=False).items()},
        "inputs_exhausted": any(p["units"] == input_count(workload, seconds) for p in passes),
        "reference_digest": f"{first['digest']} ({verdict} the recorded one)",
        "setup_samples_s": " ".join(f"{s:.4f}" for s in setups),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, info


def traced(workload: str, inputs: list[Path], seed: int, seconds: float) -> tuple[dict, dict]:
    """The first pass runs untraced for seconds/PASSES; a traced process
    then runs the same ops, the checks and the layer fixture."""
    base, _ = child(inputs[0], "measure", seconds / PASSES)
    spans_path = WORK / f"spans-{workload}-seed{seed}.jsonl"
    out, _ = child(inputs[0], "trace", ops=base["units"], spans=spans_path)
    # times scaled to the reference speed by each process's median probe
    base_speed = PROBE_REF_S / statistics.median(base["probes_s"])
    traced_speed = PROBE_REF_S / statistics.median(out["probes_s"])
    metrics: dict[str, tuple[float, str]] = {"scalars.surd_new.count": (out["surd_new"], "count")}
    for name, value in out["kernels_us"].items():
        metrics[name] = (value * traced_speed, "us")
    for name in SPANS:
        agg = out["spans"][phase_of(workload, name)].get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (agg["calls"], "count")
        metrics[f"{name}.total_s"] = (agg["total_s"] * traced_speed, "s")
        metrics[f"{name}.self_s"] = (agg["self_s"] * traced_speed, "s")
    metrics["sets.membership.lp_per_call"] = (out["lp_per_call"], "ratio")
    metrics["sets.project.solves_per_call"] = (out["solves_per_call"], "ratio")
    for name, value in out["fixture_ms"].items():
        metrics[name] = (value * traced_speed, "ms")
    overhead = out["wall_s"] * traced_speed / (base["wall_s"] * base_speed)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    failed = base["failed"] + out["failed"]
    if base["outputs_digest"] != out["outputs_digest"]:
        failed += base["units"]  # tracing changed the output bytes
    attempted = base["attempted"] + out["attempted"]
    acc = out["accounting"]
    accounting = (f"stages {sum(acc['stages_s'].values()):.4f} s + separate self "
                  f"{acc['separate_self_s']:.4f} s = separate {acc['separate_s']:.4f} s traced, "
                  f"unscaled")
    if workload != "approx_sweep":
        ratio = acc["separate_s"] * traced_speed / (sum(base["latency_s"]) * base_speed)
        accounting += (f"; traced / untraced separate time at reference speed {ratio:.3f}, "
                       f"trace.overhead_ratio {overhead:.3f}")
    info = {
        "fail_ratio": failed / attempted,
        "samples": f"{base['units']} {'sweeps' if workload == 'approx_sweep' else 'calls'} "
                   f"traced and untraced",
        "spans_file": str(spans_path.relative_to(ROOT)),
        "stage_accounting": accounting,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, info


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = write_inputs(workload, seed, seconds)
    result, info = (traced if trace else untraced)(workload, inputs, seed, seconds)
    for name, (value, unit) in result["metrics"].items():
        print(f"{workload}  {name}  {value:.6g} {unit}")
    for name, value in info.items():
        print(f"{workload}  {name}  {value}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    WORK.mkdir(parents=True, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_one(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    prefix = len(names) > 1
    metrics = {
        (f"{w}.{name}" if prefix else name): {"value": value, "unit": unit}
        for w, r in results.items()
        for name, (value, unit) in r["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
