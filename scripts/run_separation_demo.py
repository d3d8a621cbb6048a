#!/usr/bin/env python3
"""Separate one exterior point from a triangle with an irrational vertex.

Prints the exact certificate and trace JSON and writes an SVG of the
set, the cut and the query point next to this script (out/).
"""

import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ratsep import Surd, Vector, VPolyhedron, render_svg, separate, verify_certificate
from ratsep import serialization as ser


def main() -> int:
    sq2 = Surd.root(2)
    X = VPolyhedron((Vector([0, 0]), Vector([sq2, 0]), Vector([0, 1])))
    y = Vector([F(3, 2), F(3, 2)])

    cert, trace = separate(X, y)
    assert verify_certificate(X, y, cert)

    payload = {
        "certificate": ser.certificate_to_json(cert),
        "trace": ser.trace_to_json(trace),
    }
    print(ser.dumps(payload), end="")

    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    svg_path = out_dir / "separation_demo.svg"
    svg_path.write_text(render_svg(X, [cert], y), encoding="utf-8")
    print(f"wrote {svg_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
