"""The benchmark's tracer finds ratsep's functions by module attribute.

``perfbench/tracer.py`` wraps each ``(module, attribute)`` of its
``LAYER_SPANS`` table and each ``STAGE_OF`` name bound in
``ratsep.separation``; a rename or move of any of them would break the
traced benchmark run.  ``perfbench/gen.py`` and ``worker.kernel_us`` use
``Surd``'s constructor, ``root``, ``r`` and ``k``, so a change of its
representation must keep them.  These tests read and run those files
and leave them as they are.
"""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import ratsep.separation
from ratsep import serialization
from ratsep.scalars import Surd

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load_perfbench("tracer")


def test_layer_spans_resolve(tracer):
    assert tracer.LAYER_SPANS
    for span, (module, attr) in tracer.LAYER_SPANS.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span


def test_stage_functions_are_called_by_separate(tracer):
    assert tracer.STAGE_OF
    called = ratsep.separation.separate.__code__.co_names
    for name in tracer.STAGE_OF:
        assert callable(getattr(ratsep.separation, name, None)), name
        assert name in called, name


def test_surd_counter_sees_checked_constructions(monkeypatch):
    """The tracer counts Surd constructions by wrapping ``Surd.__init__``;
    the public constructor and ``Surd.root`` go through it.  The parser
    does not (``test_serialization`` pins that), and the benchmark's
    count leaves parsing out anyway: ``worker.trace`` reads the counter
    after the setup's parse and counts only the timed units."""
    calls = []
    init = Surd.__init__

    def counting_init(obj, *args, **kwargs):
        calls.append(args)
        init(obj, *args, **kwargs)

    monkeypatch.setattr(Surd, "__init__", counting_init)
    for build in (
        lambda: Surd(1, 1, 2),
        lambda: Surd.root(3),
    ):
        before = len(calls)
        build()
        assert len(calls) > before


def test_surd_fields_read_by_the_benchmark(tracer, monkeypatch):
    """``gen.py`` builds coordinates with ``Surd(r, s, k)`` and ``Surd.root``,
    and ``worker.kernel_us`` (the ``--trace 1`` Surd kernels) reads ``.r`` and
    ``.k`` of them; both run here on one generated instance."""
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    gen, worker = load_perfbench("gen"), load_perfbench("worker")
    instances = [serialization.parse_instance(obj) for obj in gen.separate_bigk(1, 1)]
    coords = [c for v in instances[0].polyhedron.vertices for c in v]
    assert any(c.k == gen.BIG_K for c in coords)
    assert all(type(c.r) is Fraction for c in coords)
    kernels = worker.kernel_us(ratsep, SimpleNamespace(timed=instances))
    assert sorted(kernels) == ["scalars.div_us", "scalars.mul_us", "scalars.sign_us"]
