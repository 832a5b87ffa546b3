"""Output checker: a request passes only if it exited 0 and its stdout is a
well-formed table that satisfies the identities every correct table does.
For inputs whose output was recorded from a known-good commit, the stdout
digest must match as well.

Identities, for any input:

* degree rows are n = 0..cap-1, and ``dim`` in degree n is the number of
  degree-n monomials, the coefficient of t^n in the algebra's generating
  function prod_even 1/(1-t^d) * prod_odd (1+t^d);
* 0 <= betti <= dim, and betti = 1 in degree 0 (the spaces are connected);
* ``eigen``: inv_plus + inv_minus == betti; ``cohomology``: no split;
* ``pseudoisotopy`` rows are i = 0..cap-3, every entry is >= 0, and
  invP_plus == invA_minus.
"""

from __future__ import annotations

import hashlib
import json

from workloads import cochain_dims

DEGREE_COLUMNS = ["n", "dim", "betti", "inv_plus", "inv_minus"]
PSEUDO_COLUMNS = ["i", "invP_plus", "invP_minus", "invA_plus", "invA_minus"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _parse_cell(cell: str):
    return None if cell == "-" else int(cell)


def parse_rows(text: str, columns: list[str]) -> list[dict]:
    """Rows of a CLI table (``--format table``) or of a JSON payload as
    dicts keyed by column name.  Raises ValueError when the text is
    neither."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(text)
        rows = payload["degrees"] if "degrees" in payload else payload["rows"]
        return [{c: row[c] for c in columns} for row in rows]
    lines = text.strip().splitlines()
    if not lines or lines[0].split() != columns:
        raise ValueError(f"expected a table with header {' '.join(columns)}")
    rows = []
    for line in lines[1:]:
        cells = line.split()
        if len(cells) != len(columns):
            raise ValueError(f"malformed row {line!r}")
        rows.append(dict(zip(columns, map(_parse_cell, cells))))
    return rows


def _check_degrees(rows: list[dict], request: dict, eigen: bool) -> list[str]:
    cap = request["cap"]
    dims = cochain_dims(request["degrees"], cap)
    errors = []
    if [r["n"] for r in rows] != list(range(cap)):
        return [f"degrees are not 0..{cap - 1}"]
    for r in rows:
        n, dim, betti = r["n"], r["dim"], r["betti"]
        if dim != dims[n]:
            errors.append(f"n={n}: dim {dim} != {dims[n]} monomials")
        if not (isinstance(betti, int) and 0 <= betti <= dim):
            errors.append(f"n={n}: betti {betti} outside 0..{dim}")
        if eigen:
            plus, minus = r["inv_plus"], r["inv_minus"]
            if not (isinstance(plus, int) and isinstance(minus, int) and plus >= 0 and minus >= 0):
                errors.append(f"n={n}: eigen split {plus}, {minus} is not two dimensions")
            elif plus + minus != betti:
                errors.append(f"n={n}: inv_plus + inv_minus = {plus + minus} != betti {betti}")
        elif r["inv_plus"] is not None or r["inv_minus"] is not None:
            errors.append(f"n={n}: cohomology row carries an eigen split")
    if rows[0]["betti"] != 1:
        errors.append(f"n=0: betti {rows[0]['betti']} != 1")
    return errors


def _check_pseudoisotopy(rows: list[dict], request: dict) -> list[str]:
    cap = request["cap"]
    if [r["i"] for r in rows] != list(range(cap - 2)):
        return [f"rows are not i = 0..{cap - 3}"]
    errors = []
    for r in rows:
        values = [r[c] for c in PSEUDO_COLUMNS[1:]]
        if not all(isinstance(v, int) and v >= 0 for v in values):
            errors.append(f"i={r['i']}: entries {values} are not dimensions")
        elif r["invP_plus"] != r["invA_minus"]:
            errors.append(f"i={r['i']}: invP_plus {r['invP_plus']} != invA_minus {r['invA_minus']}")
    return errors


def check_output(request: dict, outcome: dict, expected_digest: str | None = None) -> list[str]:
    """Reasons the request failed; empty when it passed.  ``outcome`` holds
    the child's ``code``, ``error`` (an exception raised out of main, or
    None) and ``stdout``."""
    if outcome.get("error"):
        return [f"raised {outcome['error']}"]
    if outcome.get("code") != 0:
        return [f"exit code {outcome.get('code')}"]
    stdout = outcome.get("stdout", "")
    command = request["argv"][0]
    try:
        if command == "pseudoisotopy":
            errors = _check_pseudoisotopy(parse_rows(stdout, PSEUDO_COLUMNS), request)
        else:
            rows = parse_rows(stdout, DEGREE_COLUMNS)
            errors = _check_degrees(rows, request, eigen=command == "eigen")
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"]
    if expected_digest is not None and digest(stdout) != expected_digest:
        errors.append(f"stdout digest {digest(stdout)} != recorded {expected_digest}")
    return errors
