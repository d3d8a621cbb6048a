"""Batch command line front end.

Subcommands mirror the library operations one-to-one:

  separate        instance (set + point) -> certificate + trace JSON
  verify          instance + certificate -> {"valid": bool}
  approximate     instance (set + probes + grid) -> cuts + excess JSON
  counterexample  direction vector -> rational parallel direction or null
  plot            2-D instance (+ optional cuts) -> SVG file

Exit codes: 0 success, 1 malformed input, 2 validation errors (point
inside set, non-pointed set), 3 internal errors (an exact check of the
program's own result failed, a step of ``separate`` rejected its input
after validation, or any other unexpected exception, reported
as its type and message without a traceback, on stderr and as the JSON
body {"error": "internal: <Type>: <message>"} on stdout), 64 usage
errors.  All JSON numerics are exact strings; floats appear only inside
the SVG.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import serialization as ser
from .approximation import excess_measure, outer_approximate
from .certificates import (
    brute_force_separator,
    rational_parallel_direction,
    verify_certificate,
)
from .errors import DimensionMismatchError, NotPointedError, PointInSetError, SeparationBugError
from .separation import separate
from .svg import render_svg

__all__ = ["main", "build_parser"]

USAGE = (
    "usage: ratsep {separate|verify|approximate|counterexample|plot} [options]\n"
    "Run 'ratsep <subcommand> --help' for details."
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="ratsep", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command")

    def add(name: str, help_text: str) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--instance", help="path to an instance JSON file")
        if name != "approximate":  # approximate reads probes, never a point
            p.add_argument("--point", help="inline point, a JSON array of coordinates")
        return p

    p = add("separate", "compute a separating rational halfspace and its trace")
    p.add_argument(
        "--max-den",
        dest="max_den",
        type=int,
        help="also cross-check against the 2-D brute-force oracle with this bound",
    )

    p = add("verify", "check a certificate against a set and point")
    p.add_argument("--certificate", help="path to a certificate JSON file")

    p = add("approximate", "iterate separation over probes into an outer approximation")
    p.add_argument("--budget", type=int, help="maximum number of cuts")
    p.add_argument("--grid", help="inline grid spec JSON for the excess measure")

    add("counterexample", "decide whether a direction has a rational parallel")

    p = add("plot", "render the 2-D instance (and optional cuts) as SVG")
    p.add_argument("--cuts", help="path to a JSON file with a 'cuts' array")
    p.add_argument("--out", help="output SVG path (default plot.svg)")

    return parser


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _inline_json(flag: str, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{flag} is not valid JSON: {exc}") from exc


def _load_instance(args) -> ser.Instance:
    inst = ser.parse_instance(_load_json(args.instance)) if args.instance else None
    text = getattr(args, "point", None)
    point = ser.parse_vector(_inline_json("--point", text)) if text else None
    if inst is None:
        raise ValueError("an --instance file is required")
    return inst if point is None else replace(inst, point=point)


def _emit(payload: dict) -> None:
    sys.stdout.write(ser.dumps(payload))


def _cmd_separate(args) -> int:
    inst = _load_instance(args)
    if inst.point is None:
        raise ValueError("separate needs a point (instance 'point' or --point)")
    max_den = inst.options.max_den
    if args.max_den is not None:
        max_den = ser.check_count(args.max_den, "--max-den", ser.MAX_DEN)
    if max_den is not None and inst.polyhedron.dim != 2:
        raise ValueError("--max-den cross-checking is 2-D only")
    cert, trace = separate(inst.polyhedron, inst.point)
    if max_den is not None:
        if not verify_certificate(inst.polyhedron, inst.point, cert):
            raise SeparationBugError("pipeline certificate failed verification")
        oracle = brute_force_separator(inst.polyhedron, inst.point, max_den)
        if oracle is not None and not verify_certificate(
            inst.polyhedron, inst.point, oracle
        ):
            raise SeparationBugError("brute-force oracle certificate failed verification")
    _emit(
        {
            "certificate": ser.certificate_to_json(cert),
            "trace": ser.trace_to_json(trace),
        }
    )
    return 0


def _cmd_verify(args) -> int:
    inst = _load_instance(args)
    if inst.point is None:
        raise ValueError("verify needs a point (instance 'point' or --point)")
    cert = inst.certificate
    if args.certificate:
        cert = ser.parse_certificate(_load_json(args.certificate))
    if cert is None:
        raise ValueError("verify needs a certificate (--certificate or instance field)")
    _emit({"valid": verify_certificate(inst.polyhedron, inst.point, cert)})
    return 0


def _cmd_approximate(args) -> int:
    inst = _load_instance(args)
    if not inst.probes:
        raise ValueError("approximate needs a nonempty 'probes' list in the instance")
    if args.budget is not None:
        ser.check_count(args.budget, "--budget", ser.MAX_PROBES)
    budget = args.budget or inst.options.budget or len(inst.probes)
    grid = ser.parse_grid(_inline_json("--grid", args.grid)) if args.grid else inst.options.grid
    if grid is None:
        raise ValueError("approximate needs a grid (options.grid or --grid)")
    if inst.polyhedron.dim != 2:
        raise DimensionMismatchError("the excess measure is 2-D only")
    approx = outer_approximate(inst.polyhedron, inst.probes, budget)
    excess = excess_measure(inst.polyhedron, approx, grid)
    _emit({**ser.approx_to_json(approx), "excess": ser.fraction_to_str(excess)})
    return 0


def _cmd_counterexample(args) -> int:
    point = None
    if args.point:
        point = ser.parse_vector(_inline_json("--point", args.point))
    elif args.instance:
        point = ser.parse_instance(_load_json(args.instance)).point
    if point is None:
        raise ValueError("counterexample needs a direction (--point or instance point)")
    direction = rational_parallel_direction(point)
    _emit(
        {
            "rational_direction": None
            if direction is None
            else [ser.fraction_to_str(f) for f in direction.as_fractions()]
        }
    )
    return 0


def _cmd_plot(args) -> int:
    inst = _load_instance(args)
    cuts = ser.parse_cuts(_load_json(args.cuts)) if args.cuts else ()
    out_path = Path(args.out or "plot.svg")
    document = render_svg(inst.polyhedron, cuts, inst.point)
    try:
        out_path.write_text(document, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc}") from exc
    _emit({"svg_path": str(out_path)})
    return 0


_COMMANDS = {
    "separate": _cmd_separate,
    "verify": _cmd_verify,
    "approximate": _cmd_approximate,
    "counterexample": _cmd_counterexample,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n{USAGE}\n")
        return 64
    if args.command is None:
        sys.stderr.write(USAGE + "\n")
        return 64
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except SeparationBugError as exc:
        sys.stderr.write(f"error: internal: {exc}\n")
        return _internal(exc)
    except (PointInSetError, NotPointedError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:
        sys.stderr.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        return _internal(exc)


def _internal(exc: Exception) -> int:
    """Exit 3 with the JSON body {"error": "internal: <Type>: <message>"}."""
    _emit({"error": f"internal: {type(exc).__name__}: {exc}"})
    return 3


if __name__ == "__main__":
    sys.exit(main())
