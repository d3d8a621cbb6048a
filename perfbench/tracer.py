"""In-memory span recorder that wraps ratsep's public functions.

``Tracer.install`` replaces each traced function at every module
attribute that binds it (``ratsep.sets.project`` and
``ratsep.separation.project`` alike, since the modules import each other
with ``from .x import y``) and ``Tracer.uninstall`` puts the originals
back.  Inside ``separate``, the calls it makes directly are grouped into
stage spans; consecutive calls of one stage share a single span.  Surd
constructions are counted, not spanned.  Nothing here runs unless the
benchmark asks for a traced run.
"""

from __future__ import annotations

import itertools
import json
import sys
from time import perf_counter

# span name -> (module, attribute) of the function it wraps
LAYER_SPANS = {
    "scalars.sqrt_enclosure": ("ratsep.scalars", "sqrt_enclosure"),
    "scalars.rational_in_ball": ("ratsep.scalars", "rational_in_ball"),
    "scalars.choose_rational_between": ("ratsep.scalars", "choose_rational_between"),
    "linalg.simplex_max": ("ratsep.linalg", "simplex_max"),
    "linalg.solve_linear_system": ("ratsep.linalg", "solve_linear_system"),
    "sets.membership": ("ratsep.sets", "membership"),
    "sets.project": ("ratsep.sets", "project"),
    "sets.is_pointed": ("ratsep.sets", "is_pointed"),
    "sets.support_value": ("ratsep.sets", "support_value"),
    "separation.separate": ("ratsep.separation", "separate"),
    "approximation.outer_approximate": ("ratsep.approximation", "outer_approximate"),
    "approximation.excess_measure": ("ratsep.approximation", "excess_measure"),
    "certificates.verify_certificate": ("ratsep.certificates", "verify_certificate"),
    "serialization.parse_instance": ("ratsep.serialization", "parse_instance"),
}

# names that ``separate`` calls directly -> the pipeline stage they belong to
STAGE_OF = {
    "is_pointed": "separation.validate",
    "membership": "separation.validate",
    "project": "separation.project",
    "find_barrier_direction": "separation.barrier",
    "bound_support_on_ball": "separation.bound",
    "compute_wedge_parameters": "separation.wedge",
    "wedge_interior_ball": "separation.wedge",
    "rational_in_ball": "separation.witness",
    "support_value": "separation.witness",
    "choose_rational_between": "separation.witness",
}
STAGES = tuple(dict.fromkeys(STAGE_OF.values()))
SEPARATE = "separation.separate"

# span fields
NAME, PARENT, INSTANCE, START, END = range(5)
# instance tags of the phases outside the timed units, which are tagged
# with their own index (0, 1, ...)
SETUP, CHECK, FIXTURE = -1, -2, -3


class Tracer:
    """Spans as [name, parent index, instance id, start, end] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.instance = SETUP
        self._stack: list[int] = []
        self._stage_parent = -1
        self._stage_last = -1
        self._restore: list[tuple[object, str, object]] = []
        self._surd_counter = itertools.count()
        self._surd_base = 0

    # -- wrappers ------------------------------------------------------

    def _layer(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, self.instance, perf_counter(), 0.0])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid][END] = perf_counter()
                stack.pop()

        return wrapper

    def _stage(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not stack or spans[stack[-1]][NAME] != SEPARATE:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if parent == self._stage_parent and spans[self._stage_last][NAME] == name:
                sid = self._stage_last  # the group continues: reopen its span
            else:
                sid = len(spans)
                spans.append([name, parent, self.instance, perf_counter(), 0.0])
                self._stage_parent, self._stage_last = parent, sid
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid][END] = perf_counter()
                stack.pop()

        return wrapper

    # -- installation --------------------------------------------------

    def _set(self, obj, attr, value):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "ratsep" or n.startswith("ratsep.")]
        for name, (module, attr) in LAYER_SPANS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._layer(name, original)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, binding, wrapper)
        separation = sys.modules["ratsep.separation"]
        for attr, stage in STAGE_OF.items():
            self._set(separation, attr, self._stage(stage, getattr(separation, attr)))

        surd = sys.modules["ratsep.scalars"].Surd
        init, counter = surd.__init__, self._surd_counter

        def counting_init(obj, *args, **kwargs):
            next(counter)
            init(obj, *args, **kwargs)

        self._set(surd, "__init__", counting_init)
        self._surd_base = next(counter) + 1  # + 1: reading the counter ticks it

    def uninstall(self):
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    def surd_count(self) -> int:
        """Surd constructions since install."""
        n = next(self._surd_counter) - self._surd_base
        self._surd_base += 1
        return n

    # -- results -------------------------------------------------------

    def aggregate(self, keep) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name, over the spans whose
        instance tag passes keep; self time is the span minus the time its
        (sequential, nested) child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict[str, float]] = {}
        for s, inner in zip(self.spans, child_time):
            if not keep(s[INSTANCE]):
                continue
            agg = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += s[END] - s[START]
            agg["self_s"] += s[END] - s[START] - inner
        return out

    def children_per_call(self, parent_name: str, child_name: str, keep) -> float:
        """Direct children named child_name per span named parent_name,
        over the parents whose instance tag passes keep."""
        parents = {i for i, s in enumerate(self.spans) if s[NAME] == parent_name and keep(s[INSTANCE])}
        if not parents:
            return 0.0
        kids = sum(1 for s in self.spans if s[NAME] == child_name and s[PARENT] in parents)
        return kids / len(parents)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "parent": s[PARENT], "instance": s[INSTANCE],
                    "start": s[START], "end": s[END],
                }) + "\n")
