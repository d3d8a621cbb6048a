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
