"""Command-line front end.

Commands:
    validate       parse a model file and report problems
    cohomology     per-degree cochain dimensions and betti numbers
    eigen          betti numbers with the involution eigenspace split
    pseudoisotopy  eigenspace dimension table for stable pseudoisotopy
                   and A-theory rational homotopy
    bfk            enumerate (i, m_min) pairs for tangent-bundle-times-
                   sphere manifolds with nontrivial metric-space homotopy
    series         expand c*t^a and c*t^a/(1-t^b) terms; t is t^1, also in (1-t)

Exit codes: 0 success, 1 input rejected by a validator, 2 usage error,
3 internal error (reported as ``internal error[<category>]: <message>``;
no traceback is printed), 141 with no message if stdout closes early.
JSON output is stable and versioned via a top-level schema_version field;
table and JSON outputs always encode the same numbers.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from pathlib import Path

from . import __version__
from .cohomology import NoInvolutionError, eigen_table
from .curvature import enumerate_pairs
from .models import ModelError, base_dga, borel_model, loop_model, parse_model
from .pseudoisotopy import NegativeDimensionError, pseudoisotopy_table
from .series import SeriesExprError, parse_expr

SCHEMA_VERSION = 1
# bfk builds one row per odd j up to --j-max, and series one row per
# degree below --max-degree, so larger values are refused.
J_MAX_LIMIT = 10_000
SERIES_MAX_DEGREE = 100_000


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="loopinv",
        description="Exact involution eigenspace tables for free loop space "
        "equivariant cohomology and stable pseudoisotopy.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_space=False, limit=""):
        p.add_argument(
            "--max-degree",
            type=int,
            default=40,
            help=f"truncation cap; degrees below this are computed (default 40, minimum 4{limit})",
        )
        p.add_argument("--format", choices=("table", "json"), default="table")
        if with_space:
            p.add_argument("--space", choices=("base", "loop", "borel"), default="borel")

    p = sub.add_parser("validate", help="parse and validate a model file")
    p.add_argument("model", help="path to a model file")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("cohomology", help="cochain dimensions and betti numbers")
    p.add_argument("model")
    add_common(p, with_space=True)

    p = sub.add_parser("eigen", help="betti numbers with the eigenspace split")
    p.add_argument("model")
    add_common(p, with_space=True)

    p = sub.add_parser("pseudoisotopy", help="pseudoisotopy/A-theory dimension table")
    p.add_argument("model")
    add_common(p)
    p.add_argument(
        "--assume-compact",
        action="store_true",
        help="record that the model is asserted to come from a compact "
        "manifold (the formulas are only meaningful in that case)",
    )

    p = sub.add_parser("bfk", help="enumerate nontrivial metric-space degrees")
    p.add_argument("--d", type=int, required=True, help="half the sphere dimension, d >= 2")
    j_help = f"largest odd index to enumerate (default 5, at most {J_MAX_LIMIT})"
    p.add_argument("--j-max", type=int, default=5, help=j_help)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("series", help="expand a closed-form series expression")
    p.add_argument("expr", help="e.g. '1/(1-t^4) + t^12/(1-t^12)'")
    add_common(p, limit=f", at most {SERIES_MAX_DEGREE}")
    return parser


def _load_model(path_str: str, out_err):
    path = Path(path_str)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"usage error: cannot read model file {path}: {exc}", file=out_err)
        return None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = parse_model(text)
    for w in caught:
        print(f"warning[{getattr(w.category, 'category', 'Warning')}]: {w.message}", file=out_err)
    return model


def _write(args, out, payload: dict, rows: list[dict], headers: list[str], err=None, note=""):
    """Write ``payload`` as versioned JSON, or ``note`` (if any) on ``err``
    and ``rows`` as a right-aligned table with one column per header
    (``-`` for a missing value)."""
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **payload}
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0
    if note:
        err.write(note)
    cells = [["-" if row[h] is None else str(row[h]) for h in headers] for row in rows]
    widths = [max([len(h)] + [len(row[i]) for row in cells]) for i, h in enumerate(headers)]
    for row in [headers, *cells]:
        out.write("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n")
    return 0


def _cmd_validate(args, out, err) -> int:
    model = _load_model(args.model, err)
    if model is None:
        return 2
    gens = model.algebra.generators
    diffs = {name: str(value) for name, value in model.differential.items()}
    if args.format == "table":
        out.write(f"ok: {len(gens)} generator(s), differential verified (d^2 = 0)\n")
        for g in gens:
            out.write(f"  gen {g.name} {g.degree}\n")
        for g in gens:
            out.write(f"  d {g.name} = {diffs[g.name]}\n")
        return 0
    generators = [{"name": g.name, "degree": g.degree} for g in gens]
    return _write(args, out, {"ok": True, "generators": generators, "differential": diffs}, [], [])


def _cmd_degrees(args, out, err) -> int:
    model = _load_model(args.model, err)
    if model is None:
        return 2
    # Looked up per call, so that a wrapper bound to one of these names is seen.
    space = {"base": base_dga, "loop": loop_model, "borel": borel_model}[args.space](model)
    want_eigen = args.command == "eigen"
    if want_eigen and not space.involution:
        raise NoInvolutionError(f"space '{args.space}' carries no involution; use --space borel")
    cap = args.max_degree
    degrees = [
        {
            "n": s.degree,
            "dim": s.cochain_dim,
            "betti": s.betti,
            "inv_plus": s.inv_plus if want_eigen else None,
            "inv_minus": s.inv_minus if want_eigen else None,
        }
        for s in eigen_table(space, cap).slices
    ]
    payload = {"model": args.model, "space": args.space, "max_degree": cap, "degrees": degrees}
    return _write(args, out, payload, degrees, ["n", "dim", "betti", "inv_plus", "inv_minus"])


def _cmd_pseudoisotopy(args, out, err) -> int:
    model = _load_model(args.model, err)
    if model is None:
        return 2
    table = pseudoisotopy_table(model, args.max_degree)
    headers = ["i", "invP_plus", "invP_minus", "invA_plus", "invA_minus"]
    rows = [{h: getattr(r, h) for h in headers} for r in table.rows]
    payload = {
        "model": args.model,
        "max_degree": args.max_degree,
        "reliable_max_i": table.reliable_max_i,
        "compact_attested": bool(args.assume_compact),
        "rows": rows,
    }
    note = "" if args.assume_compact else (
        "note: results assume the model comes from a simply-connected "
        "compact manifold (pass --assume-compact to silence)\n"
    )
    return _write(args, out, payload, rows, headers, err, note)


def _cmd_bfk(args, out, err) -> int:
    rows = [{"j": p.j, "i": p.i, "m_min": p.m_min} for p in enumerate_pairs(args.d, args.j_max)]
    payload = {"d": args.d, "j_max": args.j_max, "rows": rows}
    return _write(args, out, payload, rows, ["j", "i", "m_min"])


def _cmd_series(args, out, err) -> int:
    expr = parse_expr(args.expr)
    coeffs = expr.expand(args.max_degree).coeffs
    payload = {"expr": str(expr), "max_degree": args.max_degree, "coeffs": list(coeffs)}
    rows = [{"n": n, "coeff": c} for n, c in enumerate(coeffs)]
    return _write(args, out, payload, rows, ["n", "coeff"])


def main(argv=None) -> int:
    out, err = sys.stdout, sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "max_degree", None) is not None and args.max_degree < 4:
        print("usage error: --max-degree must be >= 4", file=err)
        return 2
    if args.command == "series" and args.max_degree > SERIES_MAX_DEGREE:
        print(f"usage error: --max-degree must be <= {SERIES_MAX_DEGREE}", file=err)
        return 2
    if getattr(args, "j_max", 0) > J_MAX_LIMIT:
        print(f"usage error: --j-max must be <= {J_MAX_LIMIT}", file=err)
        return 2
    handlers = {
        "validate": _cmd_validate,
        "cohomology": _cmd_degrees,
        "eigen": _cmd_degrees,
        "pseudoisotopy": _cmd_pseudoisotopy,
        "bfk": _cmd_bfk,
        "series": _cmd_series,
    }
    try:
        code = handlers[args.command](args, out, err)
        out.flush()  # a closed stdout raises here, not in the flush at exit
        return code
    except BrokenPipeError:  # the rest goes to os.devnull, so the final flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return 141
    except (ModelError, NoInvolutionError, NegativeDimensionError, SeriesExprError) as exc:
        category = getattr(exc, "category", type(exc).__name__)
        print(f"{category}: {exc}", file=err)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=err)
        return 2
    except Exception as exc:  # the CLI boundary: report, never a traceback
        category = getattr(exc, "category", type(exc).__name__)
        print(f"internal error[{category}]: {exc}", file=err)
        return 3


if __name__ == "__main__":
    sys.exit(main())
