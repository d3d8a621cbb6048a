"""The measuring process of one benchmark pass.

    python3 perfbench/worker.py --inputs FILE --mode measure --seconds S
    python3 perfbench/worker.py --inputs FILE --mode trace --ops N --spans FILE

It imports ratsep from the src/ directory beside perfbench/, parses the
input file written by run.py and, by mode:

  measure  runs the closed loop (one caller, each call after the last
           returns) for S seconds, stopping at a block boundary, then
           checks every output; the first pass also checks the
           reference outputs
  trace    installs the span tracer, runs exactly N units and their
           checks, then the layer fixture; spans are tagged with the
           phase that made them (set-up, timed unit, checks, fixture)

It prints one JSON object.  ``ready_at`` is the time.monotonic() value
at which set-up (import and parse) ended, so run.py can time set-up from
before it started the process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import CHECK, END, FIXTURE, INSTANCE, NAME, PARENT, SEPARATE, SETUP, STAGES, START, Tracer

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE_GAP_S = 0.02  # a speed probe follows a timed segment this long after the last one
KERNEL_OPERANDS = 64
KERNEL_REPEATS = 7
FIXTURE_REPEATS = 5


def speed_probe() -> float:
    """Seconds taken by a fixed exact-arithmetic loop (Fraction sums with
    growing denominators, like ratsep's own work).  A shared machine's
    speed drifts, so run.py scales each timed segment by the probe taken
    next to it.  The garbage collector is off while it runs, so that a
    collection the program's own heap has made due falls in the program's
    timed segment, not in the probe."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 600):
            total += Fraction(1, i % 97 + 1)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def cert_bits(cert) -> int:
    """Largest bit length of any numerator or denominator of (a, beta)."""
    values = [*cert.a.as_fractions(), cert.beta]
    return max(max(abs(f.numerator).bit_length(), f.denominator.bit_length()) for f in values)


def columns(grid, GridSpec):
    """The grid split into x = const columns, in the grid's own x-major order."""
    out = []
    x = grid.mins[0]
    while x <= grid.maxs[0]:
        out.append(GridSpec((x, grid.mins[1]), (x, grid.maxs[1]), grid.step))
        x += grid.step
    return out


class Workload:
    """Shared state of one run: parsed inputs and collected results."""

    def __init__(self, ratsep, inputs: dict, tracer=None):
        self.r = ratsep
        self.name = inputs["workload"]
        self.inputs = inputs
        self.tracer = tracer
        self.parse()

    def parse(self):
        parse = self.r.serialization.parse_instance
        self.timed = [parse(obj) for obj in self.inputs["timed"]]
        self.reference = [parse(obj) for obj in self.inputs["reference"]]

    @property
    def sweeps(self) -> bool:
        return self.name == "approx_sweep"

    # -- the timed loop -------------------------------------------------

    def run(self, seconds: float | None, ops: int | None) -> float:
        """Closed loop over the units (calls or sweeps); returns its wall
        seconds.  With `ops`, exactly that many units run.  With `seconds`,
        at least min_units run, and after that the loop stops at the first
        block boundary where one more block, as long as the last one, would
        end past `seconds`.

        Timed segments are kept in order, so passes over the same units
        line up segment by segment: `latencies` (one per separate call, or
        per excess_measure call on one grid column) with the ops each
        completed, and `extra` (outer_approximate per sweep).  Each segment
        also records the index of the first speed probe taken after it."""
        self.results = []
        self.latencies: list[float] = []
        self.latency_ops: list[int] = []
        self.latency_probe: list[int] = []
        self.extra: list[float] = []
        self.extra_probe: list[int] = []
        self.probes = [speed_probe()]
        self._probed_at = time.perf_counter()
        block, min_units = self.inputs["block"], self.inputs["min_units"]
        start = last = time.perf_counter()
        for i, inst in enumerate(self.timed):
            if ops is not None and i >= ops:
                break
            if seconds is not None and i > 0 and i % block == 0:
                now = time.perf_counter()
                if i >= min_units and 2 * now - last - start > seconds:
                    break
                last = now
            if self.tracer is not None:
                self.tracer.instance = i
            self.results.append(self.sweep(inst) if self.sweeps else self.separate(inst))
        wall = time.perf_counter() - start
        self.probes.append(speed_probe())
        return wall

    def record(self, seconds: float, ops: int | None = None):
        """Record one timed segment (a latency sample unless ops is None)
        and take a speed probe if one is due."""
        if ops is None:
            self.extra.append(seconds)
            self.extra_probe.append(len(self.probes))
        else:
            self.latencies.append(seconds)
            self.latency_ops.append(ops)
            self.latency_probe.append(len(self.probes))
        if time.perf_counter() - self._probed_at >= PROBE_GAP_S:
            self.probes.append(speed_probe())
            self._probed_at = time.perf_counter()

    def separate(self, inst):
        t0 = time.perf_counter()
        try:
            out = self.r.separate(inst.polyhedron, inst.point)
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        self.record(time.perf_counter() - t0, 1)
        return out

    def sweep(self, inst):
        """outer_approximate, then excess_measure after every cut prefix,
        one grid column per call.  Returns (approx, exact excess per prefix)."""
        r = self.r
        X = inst.polyhedron
        cols = columns(inst.options.grid, r.GridSpec)
        sizes = [sum(1 for _ in c.points()) for c in cols]
        try:
            t0 = time.perf_counter()
            approx = r.outer_approximate(X, inst.probes, inst.options.budget)
            self.record(time.perf_counter() - t0)
            excess = []
            for j in range(len(approx.cuts) + 1):
                prefix = r.approximation.OuterApprox(X, approx.cuts[:j])
                outside = 0
                for col, size in zip(cols, sizes):
                    t0 = time.perf_counter()
                    frac = r.excess_measure(X, prefix, col)
                    self.record(time.perf_counter() - t0, size)
                    outside += frac * size
                excess.append(Fraction(outside, sum(sizes)))
            return approx, excess
        except Exception as exc:  # a failed op is counted, not fatal
            return exc

    def ops_of(self, result, inst) -> int:
        if not self.sweeps:
            return 1
        points = sum(1 for _ in inst.options.grid.points())
        cuts = 0 if isinstance(result, Exception) else len(result[0].cuts)
        return points * (cuts + 1)

    # -- checks ----------------------------------------------------------

    def check(self, expected: dict, reference: bool) -> dict:
        """Exact checks of every output.  Returns the counts, certificate
        heights, a digest of all outputs and, if `reference`, the digest
        of the reference outputs, which must equal the recorded one."""
        r = self.r
        ser = r.serialization
        attempted = failed = 0
        bits = []
        outputs = hashlib.sha256()
        for i, (inst, res) in enumerate(zip(self.timed, self.results)):
            n = self.ops_of(res, inst)
            attempted += n
            if isinstance(res, Exception):
                failed += n
                outputs.update(repr(res).encode())
                continue
            outputs.update(self.serialized(res).encode())
            if self.sweeps:
                approx, excess = res
                ok = all(approx.excludes(p) for p in inst.probes)
                ok = ok and all(b <= a for a, b in zip(excess, excess[1:]))
                ok = ok and all(any(r.verify_certificate(inst.polyhedron, p, c) for p in inst.probes)
                                for c in approx.cuts)
                if i == 0 and reference:  # the unshifted sweep
                    bits = [cert_bits(c) for c in approx.cuts]
                    ok = ok and ser.fraction_to_str(excess[-1]) == expected["final_excess"]
            else:
                cert, trace = res
                ok = r.verify_certificate(inst.polyhedron, inst.point, cert)
                ok = ok and trace.a.as_fractions() == cert.a.as_fractions() and trace.beta == cert.beta
                if i < self.inputs["min_units"]:
                    bits.append(cert_bits(cert))
            if not ok:
                failed += n
        out = {"attempted": attempted, "failed": failed, "cert_bits": bits,
               "outputs_digest": outputs.hexdigest()}
        if reference:
            out["digest"] = self.reference_digest()
            out["attempted"] += 1
            out["failed"] += out["digest"] != expected["reference_digest"]
        return out

    def serialized(self, result) -> str:
        """Canonical JSON of one op's output: certificate and trace, or the
        cuts and exact excess sequence of a sweep."""
        ser = self.r.serialization
        if self.sweeps:
            approx, excess = result
            return ser.dumps({**ser.approx_to_json(approx),
                              "excess": [ser.fraction_to_str(e) for e in excess]})
        cert, trace = result
        return ser.dumps({"certificate": ser.certificate_to_json(cert),
                          "trace": ser.trace_to_json(trace)})

    def reference_digest(self) -> str:
        """SHA-256 of the serialized reference outputs: those of the fixed
        reference instances, or of the unshifted sweep."""
        h = hashlib.sha256()
        if self.sweeps:
            results = self.results[:1]
        else:
            results = [self.r.separate(i.polyhedron, i.point) for i in self.reference]
        for res in results:
            if isinstance(res, Exception):
                return "failed"
            h.update(self.serialized(res).encode())
        return h.hexdigest()


# -- per-layer extras of the traced run ------------------------------------


def kernel_us(ratsep, w: Workload) -> dict:
    """Median microseconds per Surd mul, div and sign on operands in the
    workload's own field, built from the coordinates of its instances."""
    Surd = ratsep.Surd
    k = 2
    coords = []
    for inst in w.timed:
        for v in (*inst.polyhedron.vertices, *inst.polyhedron.rays, *inst.probes,
                  *([inst.point] if inst.point is not None else [])):
            for c in v:
                if c.k != 1:
                    k = c.k
                coords.append(c.r)
        if len(coords) > 4 * KERNEL_OPERANDS:
            break
    root = Surd.root(k)
    n = min(2 * KERNEL_OPERANDS, len(coords) - 1)
    ops = [coords[i] + coords[i + 1] * root for i in range(0, n, 2)]
    pairs = [(a, b) for a, b in zip(ops, ops[1:] + ops[:1]) if b]
    diffs = [a - b for a, b in pairs]
    kernels = {
        "scalars.mul_us": lambda: [a * b for a, b in pairs],
        "scalars.div_us": lambda: [a / b for a, b in pairs],
        "scalars.sign_us": lambda: [d.sign() for d in diffs],
    }
    out = {}
    for name, fn in kernels.items():
        samples = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - t0) / len(pairs) * 1e6)
        out[name] = statistics.median(samples)
    return out


def fixture(ratsep, inputs: dict) -> tuple[dict, int]:
    """The same small job in every workload, so every layer has spans:
    `ratsep separate` in-process on the README triangle, the unshifted
    outer approximation with an excess check on a 1/2 grid, and an SVG
    of its cuts.  Returns (timings in ms, failed checks)."""
    ser = ratsep.serialization
    fx = inputs["fixture"]
    failed = 0
    cli_ms = []
    for point in fx["cli_points"]:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = ratsep.cli.main(["separate", "--instance", fx["cli_instance"],
                                    "--point", json.dumps(point)])
        cli_ms.append((time.perf_counter() - t0) * 1e3)
        if code != 0:
            failed += 1
            continue
        with open(fx["cli_instance"], encoding="utf-8") as fh:
            X = ser.parse_instance(json.load(fh)).polyhedron
        cert = ser.parse_certificate(json.loads(out.getvalue())["certificate"])
        failed += not ratsep.verify_certificate(X, ser.parse_vector(point), cert)
    sweep = ser.parse_instance(fx["sweep"])
    X = sweep.polyhedron
    approx = ratsep.outer_approximate(X, sweep.probes, sweep.options.budget)
    coarse = ratsep.GridSpec(sweep.options.grid.mins, sweep.options.grid.maxs, Fraction(1, 2))
    ratsep.excess_measure(X, approx, coarse)
    failed += not all(approx.excludes(p) for p in sweep.probes)
    svg_ms = []
    for _ in range(FIXTURE_REPEATS):
        t0 = time.perf_counter()
        ratsep.render_svg(X, approx.cuts, sweep.probes[0])
        svg_ms.append((time.perf_counter() - t0) * 1e3)
    return {"cli.separate_ms": statistics.median(cli_ms),
            "svg.render_svg_ms": statistics.median(svg_ms)}, failed


def stage_accounting(spans) -> dict:
    """Timed-phase totals: separate spans, their own (self) time and the
    stage spans under them.  Stages are separate's only direct children,
    so stages + separate self == separate exactly."""
    sep = {i for i, s in enumerate(spans) if s[NAME] == SEPARATE and s[INSTANCE] >= 0}
    total = sum(spans[i][END] - spans[i][START] for i in sep)
    stages = dict.fromkeys(STAGES, 0.0)
    for s in spans:
        if s[PARENT] in sep:
            stages[s[NAME]] += s[END] - s[START]
    return {"separate_s": total, "separate_self_s": total - sum(stages.values()), "stages_s": stages}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--mode", choices=("measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import ratsep
    import ratsep.cli

    if SRC not in Path(ratsep.__file__).resolve().parents:
        raise SystemExit(f"ratsep was imported from {ratsep.__file__}, not {SRC}")
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)

    if args.mode == "trace":
        return trace(ratsep, inputs, args)

    w = Workload(ratsep, inputs)
    ready_at = time.monotonic()
    ready = {"ready_at": ready_at, "ready_probe_s": statistics.median(speed_probe() for _ in range(3))}
    wall = w.run(args.seconds, None)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checks = w.check(inputs["expected"], reference=inputs["pass"] == 0)
    print(json.dumps({
        **ready,
        "wall_s": wall,
        "units": len(w.results),
        "latency_s": w.latencies,
        "latency_ops": w.latency_ops,
        "latency_probe": w.latency_probe,
        "extra_s": w.extra,
        "extra_probe": w.extra_probe,
        "probes_s": w.probes,
        "peak_rss_kb": peak_rss_kb,
        **checks,
    }))
    return 0


def trace(ratsep, inputs: dict, args) -> int:
    # operands for the scalar kernels come from an untraced parse
    kernels = kernel_us(ratsep, Workload(ratsep, {**inputs, "timed": inputs["timed"][:32]}))
    tracer = Tracer()
    tracer.install()
    try:
        w = Workload(ratsep, inputs, tracer)  # spans tagged SETUP
        tracer.surd_count()  # count only the timed units' constructions
        wall = w.run(None, args.ops)  # spans tagged with the unit's index
        surd_new = tracer.surd_count()
        tracer.instance = CHECK
        checks = w.check(inputs["expected"], reference=False)
        tracer.instance = FIXTURE
        fixture_ms, fixture_failed = fixture(ratsep, inputs)
    finally:
        tracer.uninstall()
    tracer.write(args.spans)
    phases = {
        "setup": lambda i: i == SETUP,
        "timed": lambda i: i >= 0,
        "check": lambda i: i == CHECK,
        "fixture": lambda i: i == FIXTURE,
    }
    timed = phases["timed"]
    print(json.dumps({
        "wall_s": wall,
        "units": len(w.results),
        "probes_s": w.probes,
        "accounting": stage_accounting(tracer.spans),
        "spans": {phase: tracer.aggregate(keep) for phase, keep in phases.items()},
        "lp_per_call": tracer.children_per_call("sets.membership", "linalg.simplex_max", timed),
        "solves_per_call": tracer.children_per_call("sets.project", "linalg.solve_linear_system", timed),
        "surd_new": surd_new,
        "kernels_us": kernels,
        "fixture_ms": fixture_ms,
        "attempted": checks["attempted"] + len(inputs["fixture"]["cli_points"]) + 1,
        "failed": checks["failed"] + fixture_failed,
        "outputs_digest": checks["outputs_digest"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
