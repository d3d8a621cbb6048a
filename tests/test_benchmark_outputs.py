"""The benchmark's reference outputs, recomputed at tier-1 speed.

``perfbench/run.py`` checks the SHA-256 of the certificate and trace JSON
of a few fixed instances per workload, and of the cuts and excess sequence
of the unshifted sweep, against ``perfbench/expected.json``.
This test recomputes those digests with the benchmark's own generator
and worker code, so a change of any output byte fails here instead of
only in a benchmark run.  It reads the perfbench files and leaves them as
they are.
"""

import sys

import pytest

import ratsep.serialization  # the worker reads ratsep.serialization and ratsep.separate
from test_tracer_bindings import load_perfbench


@pytest.fixture(scope="module")
def perfbench():
    """run.py and worker.py import ``gen`` and ``tracer`` by name, and run.py
    prepends to ``sys.path``; all three are undone afterwards."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))
        for name in ("tracer", "gen"):
            mp.setitem(sys.modules, name, load_perfbench(name))
        yield load_perfbench("run"), load_perfbench("worker")


@pytest.mark.parametrize("workload", ["separate_rays", "separate_bigk"])
def test_reference_digest_matches_the_recorded_one(perfbench, workload):
    run, worker = perfbench
    reference = run.gen.GENERATORS[workload](run.REFERENCE_SEED, run.REFERENCE_COUNT)
    w = worker.Workload(ratsep, {"workload": workload, "timed": [], "reference": reference})
    assert w.reference_digest() == run.expected(workload)["reference_digest"]


def test_reference_sweep_matches_the_recorded_one(perfbench):
    """Sweep 0 of ``approx_sweep`` is its reference: the digest of its cuts
    and exact excess per cut prefix, and the final excess."""
    run, worker = perfbench
    timed = run.gen.approx_sweep(run.REFERENCE_SEED, 1)
    w = worker.Workload(ratsep, {"workload": "approx_sweep", "timed": timed, "reference": [],
                                 "block": 1, "min_units": 1})
    w.run(seconds=None, ops=1)
    expected = run.expected("approx_sweep")
    assert w.reference_digest() == expected["reference_digest"]
    _, excess = w.results[0]
    assert ratsep.serialization.fraction_to_str(excess[-1]) == expected["final_excess"]
