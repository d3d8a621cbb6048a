from fractions import Fraction as F

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
    cuts = [Certificate(Vector([3, F(-5, 2)]), F(1, 3)), Certificate(Vector([F(1, 7), 1]), 1)]
    doc = render_svg(TRIANGLE, cuts, Vector([1, 1]))
    assert doc.count('class="cut"') == 2
    scaled = [Certificate(2**power * cut.a, 2**power * cut.beta) for cut in cuts]
    assert render_svg(TRIANGLE, scaled, Vector([1, 1])) == doc


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
