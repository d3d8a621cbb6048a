import re
from fractions import Fraction as F
from random import Random

import pytest

from ratsep import (
    Certificate,
    DimensionMismatchError,
    Surd,
    Vector,
    VPolyhedron,
    render_svg,
)

TRIANGLE = VPolyhedron((Vector([0, 0]), Vector([1, 0]), Vector([0, 1])))


def test_element_counts():
    cut = Certificate(Vector([1, 1]), F(3, 2))
    doc = render_svg(TRIANGLE, [cut], Vector([1, 1]))
    assert doc.count("<polygon") == 1
    assert doc.count('class="cut"') == 1
    assert doc.count("<circle") == 1


def test_plain_set_has_polygon_only():
    doc = render_svg(TRIANGLE)
    assert doc.count("<polygon") == 1
    assert doc.count('class="cut"') == 0
    assert doc.count("<circle") == 0
    assert doc.count('class="ray"') == 0


def test_rays_render_as_arrows():
    P = VPolyhedron((Vector([0, 0]), Vector([1, 0])), (Vector([1, 1]), Vector([0, 1])))
    doc = render_svg(P)
    assert doc.count('class="ray"') == 2
    assert 'marker-end="url(#arrow)"' in doc


def test_surd_coordinates_render():
    P = VPolyhedron((Vector([0, 0]), Vector([Surd.root(2), 0]), Vector([0, 1])))
    doc = render_svg(P, point=Vector([2, 2]))
    assert doc.count("<polygon") == 1
    assert doc.count("<circle") == 1


def test_byte_determinism():
    cut = Certificate(Vector([1, 1]), F(3, 2))
    first = render_svg(TRIANGLE, [cut], Vector([1, 1]))
    second = render_svg(TRIANGLE, [cut], Vector([1, 1]))
    assert first.encode() == second.encode()


def test_dimension_check():
    X3 = VPolyhedron((Vector([0, 0, 0]),))
    with pytest.raises(DimensionMismatchError):
        render_svg(X3)
    with pytest.raises(DimensionMismatchError):
        render_svg(TRIANGLE, point=Vector([1, 1, 1]))
    for a in ([1], [1, 1, 1]):
        with pytest.raises(DimensionMismatchError):
            render_svg(TRIANGLE, [Certificate(Vector([1, 1]), F(3)), Certificate(Vector(a), F(3))])


def test_offscreen_cut_is_skipped():
    # a halfplane boundary far outside the padded viewport draws nothing
    cut = Certificate(Vector([1, 0]), F(1000))
    doc = render_svg(TRIANGLE, [cut])
    assert doc.count('class="cut"') == 0


HUGE = 10**400


def test_a_cut_too_large_for_a_float_draws_or_is_skipped():
    # the normal (10**400, 1) draws the line x = 10**-400, which is x = 0
    # on the canvas; an offset of 400 digits puts the line far outside
    wall = render_svg(TRIANGLE, [Certificate(Vector([1, 0]), 0)])
    assert wall.count('class="cut"') == 1
    assert render_svg(TRIANGLE, [Certificate(Vector([HUGE, 1]), 1)]) == wall
    far = [Certificate(Vector([1, 1]), HUGE), Certificate(Vector([-1, F(1, 3)]), -HUGE)]
    assert render_svg(TRIANGLE, far) == render_svg(TRIANGLE)


@pytest.mark.parametrize("power", [1, 7, 2000])
def test_power_of_two_multiples_of_a_cut_draw_the_same_line(power):
    # and so do its multiples by 3 and by 1/7 times that, no powers of two
    cuts = [Certificate(Vector([3, F(-5, 2)]), F(1, 3)), Certificate(Vector([F(1, 7), 1]), 1)]
    doc = render_svg(TRIANGLE, cuts, Vector([1, 1]))
    assert doc.count('class="cut"') == 2
    for multiple in (2**power, 3 * 2**power, F(2**power, 7)):
        scaled = [Certificate(multiple * cut.a, multiple * cut.beta) for cut in cuts]
        assert render_svg(TRIANGLE, scaled, Vector([1, 1])) == doc


def random_cuts(count: int, seed: int) -> list[Certificate]:
    """``count`` cuts drawn from ``Random(seed)``: normal parts p/q with
    |p| <= 9 and offsets p/q with |p| <= 12, each with 1 <= q <= 9."""
    rng = Random(seed)
    cuts = []
    while len(cuts) < count:
        a = Vector([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)])
        beta = F(rng.randint(-12, 12), rng.randint(1, 9))
        if not a.is_zero():
            cuts.append(Certificate(a, beta))
    return cuts


# how many of random_cuts(400, 29) draw beside TRIANGLE and the point
# (1, 1); a clipper deciding in floats, with a tolerance of 1e-9, drew
# the same cuts
RANDOM_CUTS_DRAWN = 204


def test_seeded_random_cuts_draw_a_recorded_count():
    doc = render_svg(TRIANGLE, random_cuts(400, 29), Vector([1, 1]))
    assert doc.count('class="cut"') == RANDOM_CUTS_DRAWN


CUT_LINE = re.compile(r'<line class="cut" x1="(\S+)" y1="(\S+)" x2="(\S+)" y2="(\S+)"')


@pytest.mark.parametrize(
    "X",
    [TRIANGLE, VPolyhedron((Vector([0, 0]), Vector([F(1, 3), 1])), (Vector([1, 0]), Vector([1, 2])))],
    ids=["triangle", "rays"],
)
def test_every_cut_reaches_past_the_canvas_both_ways(X):
    # the viewport clips each cut, so neither end may fall inside the canvas
    doc = render_svg(X, random_cuts(100, 7), Vector([1, 1]))
    width, height = map(float, re.search(r'width="(\S+)" height="(\S+)"', doc).groups())
    ends = [tuple(map(float, m)) for m in CUT_LINE.findall(doc)]
    assert len(ends) > 10
    for x1, y1, x2, y2 in ends:
        for x, y in ((x1, y1), (x2, y2)):
            assert not (0 < x < width and 0 < y < height)


def polygon(doc: str) -> str:
    return next(line for line in doc.splitlines() if line.startswith("<polygon"))


def test_hull_fills_only_extreme_vertices():
    # an interior point, a repeated vertex and a point inside an edge used
    # to become dents of the filled polygon
    hull = (Vector([0, 0]), Vector([2, 0]), Vector([0, 2]))
    expected = polygon(render_svg(VPolyhedron(hull)))
    assert expected.count(",") == 3
    for extra in ([F(1, 2), F(1, 2)], [2, 0], [1, 1]):
        doc = render_svg(VPolyhedron((*hull, Vector(extra))))
        assert polygon(doc) == expected
