"""The benchmark's tracer finds ratsep's functions by module attribute.

``perfbench/tracer.py`` wraps each ``(module, attribute)`` of its
``LAYER_SPANS`` table and each ``STAGE_OF`` name bound in
``ratsep.separation``; a rename or move of any of them would break the
traced benchmark run.  This test reads the tables and leaves the file as
it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import ratsep.separation
from ratsep import serialization
from ratsep.scalars import Surd

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    the public constructor, ``Surd.root`` and the parser go through it."""
    calls = []
    init = Surd.__init__

    def counting_init(obj, *args, **kwargs):
        calls.append(args)
        init(obj, *args, **kwargs)

    monkeypatch.setattr(Surd, "__init__", counting_init)
    for build in (
        lambda: Surd(1, 1, 2),
        lambda: Surd.root(3),
        lambda: serialization.parse_vector(["1/2", {"r": "0", "s": "1", "k": 2}]),
    ):
        before = len(calls)
        build()
        assert len(calls) > before
