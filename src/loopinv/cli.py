"""Command-line front end.

Commands:
    validate       parse a model file and report problems
    cohomology     per-degree cochain dimensions and betti numbers
    eigen          betti numbers with the involution eigenspace split
    pseudoisotopy  eigenspace dimension table for stable pseudoisotopy
                   and A-theory rational homotopy
    bfk            enumerate (i, m_min) pairs for tangent-bundle-times-
                   sphere manifolds with nontrivial metric-space homotopy
    series         expand a closed-form series expression

Exit codes: 0 success, 1 input rejected by a validator, 2 usage error,
3 internal error (reported as ``internal error[<category>]: <message>``;
no traceback is printed).
JSON output is stable and versioned via a top-level schema_version field;
table and JSON outputs always encode the same numbers.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path

from . import __version__
from .cohomology import NoInvolutionError, eigen_table
from .curvature import enumerate_pairs
from .linalg import DimensionMismatchError
from .models import ModelError, base_dga, borel_model, loop_model, parse_model
from .pseudoisotopy import NegativeDimensionError, pseudoisotopy_table
from .series import SeriesExprError, parse_expr

SCHEMA_VERSION = 1


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

    def add_common(p, with_space=False):
        p.add_argument(
            "--max-degree",
            type=int,
            default=40,
            help="truncation cap; degrees below this are computed (default 40, minimum 4)",
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
    p.add_argument("--j-max", type=int, default=5, help="largest odd index to enumerate")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("series", help="expand a closed-form series expression")
    p.add_argument("expr", help="e.g. '1/(1-t^4) + t^12/(1-t^12)'")
    add_common(p)
    return parser


def _render_table(headers: list[str], rows: list[list]) -> str:
    cells = [[("-" if v is None else str(v)) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


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


def _space_model(model, space: str):
    if space == "base":
        return base_dga(model)
    if space == "loop":
        return loop_model(model)
    return borel_model(model)


def _cmd_validate(args, out, err) -> int:
    model = _load_model(args.model, err)
    if model is None:
        return 2
    gens = [
        {"name": g.name, "degree": g.degree}
        for g in model.algebra.generators
    ]
    diffs = {
        g.name: str(model.differential.of_generator(g.name))
        for g in model.algebra.generators
    }
    if args.format == "json":
        out.write(
            _emit_json(
                {
                    "schema_version": SCHEMA_VERSION,
                    "command": "validate",
                    "ok": True,
                    "generators": gens,
                    "differential": diffs,
                }
            )
        )
    else:
        out.write(f"ok: {len(gens)} generator(s), differential verified (d^2 = 0)\n")
        for g in model.algebra.generators:
            out.write(f"  gen {g.name} {g.degree}\n")
        for g in model.algebra.generators:
            out.write(f"  d {g.name} = {diffs[g.name]}\n")
    return 0


def _cmd_degrees(args, out, err, want_eigen: bool) -> int:
    model = _load_model(args.model, err)
    if model is None:
        return 2
    space = _space_model(model, args.space)
    if want_eigen and space.involution is None:
        raise NoInvolutionError(
            f"space '{args.space}' carries no involution; use --space borel"
        )
    cap = args.max_degree
    table = eigen_table(space, cap)
    degrees = []
    for s in table.slices:
        degrees.append(
            {
                "n": s.degree,
                "dim": s.cochain_dim,
                "betti": s.betti,
                "inv_plus": s.inv_plus if want_eigen else None,
                "inv_minus": s.inv_minus if want_eigen else None,
            }
        )
    if args.format == "json":
        out.write(
            _emit_json(
                {
                    "schema_version": SCHEMA_VERSION,
                    "command": "eigen" if want_eigen else "cohomology",
                    "model": args.model,
                    "space": args.space,
                    "max_degree": cap,
                    "degrees": degrees,
                }
            )
        )
    else:
        headers = ["n", "dim", "betti", "inv_plus", "inv_minus"]
        rows = [[d["n"], d["dim"], d["betti"], d["inv_plus"], d["inv_minus"]] for d in degrees]
        out.write(_render_table(headers, rows))
    return 0


def _cmd_pseudoisotopy(args, out, err) -> int:
    model = _load_model(args.model, err)
    if model is None:
        return 2
    table = pseudoisotopy_table(model, args.max_degree)
    rows = [
        {
            "i": r.i,
            "invP_plus": r.invP_plus,
            "invP_minus": r.invP_minus,
            "invA_plus": r.invA_plus,
            "invA_minus": r.invA_minus,
        }
        for r in table.rows
    ]
    if args.format == "json":
        out.write(
            _emit_json(
                {
                    "schema_version": SCHEMA_VERSION,
                    "command": "pseudoisotopy",
                    "model": args.model,
                    "max_degree": args.max_degree,
                    "reliable_max_i": table.reliable_max_i,
                    "compact_attested": bool(args.assume_compact),
                    "rows": rows,
                }
            )
        )
    else:
        if not args.assume_compact:
            err.write(
                "note: results assume the model comes from a simply-connected "
                "compact manifold (pass --assume-compact to silence)\n"
            )
        headers = ["i", "invP_plus", "invP_minus", "invA_plus", "invA_minus"]
        out.write(
            _render_table(
                headers,
                [[r["i"], r["invP_plus"], r["invP_minus"], r["invA_plus"], r["invA_minus"]] for r in rows],
            )
        )
    return 0


def _cmd_bfk(args, out, err) -> int:
    pairs = enumerate_pairs(args.d, args.j_max)
    rows = [{"j": p.j, "i": p.i, "m_min": p.m_min} for p in pairs]
    if args.format == "json":
        out.write(
            _emit_json(
                {
                    "schema_version": SCHEMA_VERSION,
                    "command": "bfk",
                    "d": args.d,
                    "j_max": args.j_max,
                    "rows": rows,
                }
            )
        )
    else:
        out.write(_render_table(["j", "i", "m_min"], [[r["j"], r["i"], r["m_min"]] for r in rows]))
    return 0


def _cmd_series(args, out, err) -> int:
    expr = parse_expr(args.expr)
    coeffs = expr.expand(args.max_degree).coeffs
    if args.format == "json":
        out.write(
            _emit_json(
                {
                    "schema_version": SCHEMA_VERSION,
                    "command": "series",
                    "expr": str(expr),
                    "max_degree": args.max_degree,
                    "coeffs": list(coeffs),
                }
            )
        )
    else:
        out.write(_render_table(["n", "coeff"], [[n, c] for n, c in enumerate(coeffs)]))
    return 0


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
    handlers = {
        "validate": _cmd_validate,
        "cohomology": lambda a, o, e: _cmd_degrees(a, o, e, want_eigen=False),
        "eigen": lambda a, o, e: _cmd_degrees(a, o, e, want_eigen=True),
        "pseudoisotopy": _cmd_pseudoisotopy,
        "bfk": _cmd_bfk,
        "series": _cmd_series,
    }
    try:
        return handlers[args.command](args, out, err)
    except (ModelError, NoInvolutionError, NegativeDimensionError, SeriesExprError) as exc:
        category = getattr(exc, "category", type(exc).__name__)
        print(f"{category}: {exc}", file=err)
        return 1
    except DimensionMismatchError as exc:
        print(f"internal error[{exc.category}]: {exc}", file=err)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=err)
        return 2
    except Exception as exc:  # the CLI boundary: report, never a traceback
        category = getattr(exc, "category", type(exc).__name__)
        print(f"internal error[{category}]: {exc}", file=err)
        return 3


if __name__ == "__main__":
    sys.exit(main())
