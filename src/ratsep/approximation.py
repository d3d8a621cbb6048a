"""Iterated separation: rational outer approximation of a pointed set.

Feeding exterior probe points to the separation oracle and collecting
the resulting halfspaces yields a rational outer polyhedron.  The loop
skips probes already excluded, so every stored cut earned its place,
and the excess measure (exterior grid fraction still inside all cuts)
can only go down as cuts accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .certificates import Certificate
from .errors import DimensionMismatchError, NotPointedError
from .scalars import Vector
from .separation import separate
from .sets import VPolyhedron, is_pointed, membership

__all__ = ["GridSpec", "OuterApprox", "outer_approximate", "excess_measure"]


@dataclass(frozen=True)
class GridSpec:
    """A rational 2-D grid: corner points and step, iterated x-major."""

    mins: tuple[Fraction, Fraction]
    maxs: tuple[Fraction, Fraction]
    step: Fraction

    def __post_init__(self):
        object.__setattr__(self, "mins", tuple(Fraction(v) for v in self.mins))
        object.__setattr__(self, "maxs", tuple(Fraction(v) for v in self.maxs))
        object.__setattr__(self, "step", Fraction(self.step))
        if len(self.mins) != 2 or len(self.maxs) != 2:
            raise ValueError("grids are 2-D")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.mins[0] > self.maxs[0] or self.mins[1] > self.maxs[1]:
            raise ValueError("grid corners are out of order")

    def points(self) -> Iterator[Vector]:
        x = self.mins[0]
        while x <= self.maxs[0]:
            y = self.mins[1]
            while y <= self.maxs[1]:
                yield Vector([x, y])
                y += self.step
            x += self.step


@dataclass(frozen=True)
class OuterApprox:
    """An ordered list of cuts, each exactly containing the target set."""

    target: VPolyhedron
    cuts: tuple[Certificate, ...]

    def __post_init__(self):
        object.__setattr__(self, "cuts", tuple(self.cuts))
        for cut in self.cuts:
            if not cut.contains(self.target):
                raise ValueError("cut does not contain the target")

    def excludes(self, p: Vector) -> bool:
        return any(cut.excludes(p) for cut in self.cuts)


def outer_approximate(
    X: VPolyhedron, probes: Iterable[Vector], budget: int
) -> OuterApprox:
    """Run the separation oracle over the probes, keeping up to budget cuts.

    Probes inside X or already excluded by a stored cut are consumed
    without a new cut; otherwise a cut is generated.  The loop stops
    before a probe that would need a cut beyond the budget, so every
    consumed exterior probe ends up excluded.
    """
    if budget < 1:
        raise ValueError("budget must be a positive integer")
    if not is_pointed(X):
        raise NotPointedError("outer approximation requires a pointed set")
    cuts: list[Certificate] = []
    for p in probes:
        if membership(X, p):
            continue
        if any(cut.excludes(p) for cut in cuts):
            continue
        if len(cuts) >= budget:
            break
        cert, _ = separate(X, p)
        cuts.append(cert)
    return OuterApprox(target=X, cuts=tuple(cuts))


def excess_measure(X: VPolyhedron, approx: OuterApprox, grid: GridSpec) -> Fraction:
    """Fraction of grid points inside every cut but outside X (2-D, exact)."""
    if X.dim != 2:
        raise DimensionMismatchError("the excess measure is 2-D only")
    total = 0
    excess = 0
    for p in grid.points():
        total += 1
        if approx.excludes(p):
            continue
        if not membership(X, p):
            excess += 1
    return Fraction(excess, total)
