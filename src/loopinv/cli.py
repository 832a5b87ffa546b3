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

Arguments are read against one table, ``_COMMANDS``, which also gives
the help and usage text.  Only ``-h`` and words starting with ``--`` are
options, so ``series -t^2`` works; an option may be named by a unique
prefix, written ``--opt value`` or ``--opt=value``, and put before or after
the positional, and its last repeat wins.  The word after ``--`` is the
positional whatever it looks like.  ``-h``/``--help`` works per command.

Exit codes: 0 success, 1 input rejected by a validator (or a cap over
``cohomology.MAX_CAP``, refused as BudgetExceeded), 2 usage error
(``usage error: <message>``, and for a malformed argv the usage line),
3 internal error (reported as ``internal error[<category>]: <message>``;
no traceback is printed), 141 with no message if stdout closes early.
JSON output is stable and versioned via a top-level schema_version field;
table and JSON outputs always encode the same numbers.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .cohomology import MAX_CAP, BudgetExceededError, NoInvolutionError, eigen_table
from .curvature import enumerate_pairs
from .models import ModelError, borel_model, loop_model, parse_model
from .pseudoisotopy import NegativeDimensionError, pseudoisotopy_table
from .series import SeriesExprError, parse_expr

SCHEMA_VERSION = 1
# bfk builds one row per odd j up to --j-max, and series one row per
# degree below --max-degree, so larger values are refused; a table refuses
# a cap over the same MAX_CAP.
J_MAX_LIMIT = 10_000
SERIES_MAX_DEGREE = MAX_CAP


def _load_model(path_str: str, out_err):
    """The model in a file, with its warnings on ``out_err``; ValueError if unreadable."""
    if not path_str:  # Path("") would be the current directory
        raise ValueError("cannot read model file '': the path is empty")
    path = Path(path_str)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read model file {path}: {exc}") from None
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
    columns = [[h, *["-" if row[h] is None else str(row[h]) for row in rows]] for h in headers]
    # one %-format for the whole table, each line right-aligning every cell to its column
    line = "  ".join(f"%{max(map(len, column))}s" for column in columns) + "\n"
    out.write(line * (len(rows) + 1) % tuple(chain.from_iterable(zip(*columns))))
    return 0


def _cmd_validate(args, out, err) -> int:
    model = _load_model(args.model, err)
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
    # Looked up per call, so that a wrapper bound to one of these names is seen.
    build = {"loop": loop_model, "borel": borel_model}.get(args.space)  # base is the model
    space = build(model) if build else model
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


_FORMAT = ("--format", ("table", "json"), "table", "output format")
_SPACE = ("--space", ("base", "loop", "borel"), "borel", "the space whose cohomology is computed")
_CAP = ("--max-degree", int, 40,
        f"truncation cap; degrees below this are computed, minimum 4, at most {MAX_CAP}")
_COMPACT = ("--assume-compact", bool, False, "attest that the model comes from a compact "
            "manifold, the only case the formulas describe")
_MODEL = ("model", "path to a model file")
_DEGREES = [_CAP, _FORMAT, _SPACE]
# command -> (handler, summary, positional (name, help) or (), options); an option
# is (flag, int | tuple of choices | bool, default or None if required, help)
_COMMANDS = {
    "validate": (_cmd_validate, "parse and validate a model file", _MODEL, [_FORMAT]),
    "cohomology": (_cmd_degrees, "cochain dimensions and betti numbers", _MODEL, _DEGREES),
    "eigen": (_cmd_degrees, "betti numbers with the eigenspace split", _MODEL, _DEGREES),
    "pseudoisotopy": (_cmd_pseudoisotopy, "pseudoisotopy/A-theory dimension table", _MODEL, [
        _CAP, _FORMAT, _COMPACT]),
    "bfk": (_cmd_bfk, "enumerate nontrivial metric-space degrees", (), [
        ("--d", int, None, "half the sphere dimension, d >= 2"),
        ("--j-max", int, 5, f"largest odd index to enumerate, at most {J_MAX_LIMIT}"), _FORMAT]),
    "series": (_cmd_series, "expand a closed-form series expression", (
        "expr", "e.g. '1/(1-t^4) + t^12/(1-t^12)'"), [_CAP, _FORMAT]),
}


def _word(flag, kind, *_) -> str:
    return flag if kind is bool else f"{flag} {'N' if kind is int else '{' + ','.join(kind) + '}'}"


def _usage(command) -> str:
    """The usage line of ``command``, or of the program if it is None."""
    if command is None:
        return f"usage: loopinv [-h] [--version] {{{','.join(_COMMANDS)}}} ..."
    _, _, positional, options = _COMMANDS[command]
    words = [_word(*o) if o[2] is None else f"[{_word(*o)}]" for o in options]
    return " ".join(["usage: loopinv", command, "[-h]", *words, *positional[:1]])


def _help(command) -> str:
    """The usage line, a summary, then each argument with its help."""
    if command is None:
        about = ("Exact involution eigenspace tables for free loop space equivariant "
                 "cohomology and stable pseudoisotopy.")
        rows = [(name, spec[1]) for name, spec in _COMMANDS.items()]
        rows.append(("--version", "print the version and exit"))
    else:
        _, about, positional, options = _COMMANDS[command]
        rows = [positional] if positional else []
        for flag, kind, default, text in options:
            when = f"default {'off' if kind is bool else default}"
            rows.append((_word(flag, kind), f"{text} ({'required' if default is None else when})"))
    rows.append(("-h, --help", "print this help and exit"))
    lines = [_usage(command), "", about, "", *(f"  {a}\n      {b}" for a, b in rows)]
    return "\n".join(lines) + "\n"


def _parse(argv):
    """Read ``argv`` against ``_COMMANDS`` by the rules of the module
    docstring: the arguments, or the text of ``--help`` or ``--version``.
    A malformed ``argv`` raises ValueError with the reason and usage line."""
    tokens, extras, command, options = list(argv), [], None, [("--version",)]
    values = {"command": None}

    def fail(message):
        return ValueError(f"{message}\n{_usage(command)}")

    while tokens:
        token = tokens.pop(0)
        if token == "--":
            if not tokens:
                break
            token = tokens.pop(0)
        elif token == "-h" or token.startswith("--"):
            name, eq, value = token.partition("=")
            flags = ["-h", "--help", *(o[0] for o in options)]
            found = [f for f in flags if f == name] or [f for f in flags if f.startswith(name)]
            if found in (["-h"], ["--help"]):
                return _help(command)
            if found == ["--version"]:
                return f"loopinv {__version__}\n"
            if len(found) != 1:
                extras.append(token)  # reported at the end, so that a later -h still wins
                continue
            flag, kind, _, _ = next(o for o in options if o[0] == found[0])
            if kind is bool and eq:
                raise fail(f"{flag} takes no value")
            if not (kind is bool or eq or tokens):
                raise fail(f"{flag} needs a value")
            value = True if kind is bool else value if eq else tokens.pop(0)
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise fail(f"{flag} needs an integer, not {value!r}") from None
            elif kind is not bool and value not in kind:
                raise fail(f"{flag} must be one of {', '.join(kind)}, not {value!r}")
            values[flag] = value
            continue
        if command is None:
            if token not in _COMMANDS:
                raise fail(f"unknown command {token!r}")
            command, (_, _, positional, options) = token, _COMMANDS[token]
            values = {"command": command, **{o[0]: o[2] for o in options}}
            values.update(dict.fromkeys(positional[:1]))
        elif positional and values[positional[0]] is None:
            values[positional[0]] = token
        else:
            extras.append(token)
    missing = [name for name, value in values.items() if value is None]
    if missing:
        raise fail(f"missing {' '.join(missing)}")
    if extras:
        raise fail(f"unrecognized arguments: {' '.join(extras)}")
    args = SimpleNamespace(**{name.lstrip("-").replace("-", "_"): v for name, v in values.items()})
    if getattr(args, "max_degree", 4) < 4:
        raise ValueError("--max-degree must be >= 4")
    if command == "series" and args.max_degree > SERIES_MAX_DEGREE:
        raise ValueError(f"--max-degree must be <= {SERIES_MAX_DEGREE}")
    if getattr(args, "j_max", 0) > J_MAX_LIMIT:
        raise ValueError(f"--j-max must be <= {J_MAX_LIMIT}")
    return args


def main(argv=None) -> int:
    out, err = sys.stdout, sys.stderr
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # the text of --help or --version
            out.write(args)
            code = 0
        else:
            code = _COMMANDS[args.command][0](args, out, err)
        out.flush()  # a closed stdout raises here, not in the flush at exit
        return code
    except BrokenPipeError:  # the rest goes to os.devnull, so the final flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return 141
    except (ModelError, NoInvolutionError, NegativeDimensionError, SeriesExprError,
            BudgetExceededError) as exc:
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
