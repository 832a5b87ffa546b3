import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopinv.cli
from loopinv import cohomology
from loopinv.cli import J_MAX_LIMIT, SERIES_MAX_DEGREE, main
from loopinv.cohomology import MAX_CAP, DegreeSlice, eigen_table
from loopinv.models import borel_model, parse_model
from loopinv.pseudoisotopy import PseudoisotopyRow, pseudoisotopy_table
from support import MODELS_DIR

D2 = str(MODELS_DIR / "sphere-bundle-d2.model")
S2 = str(MODELS_DIR / "s2.model")
POINT = str(MODELS_DIR / "point.model")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eigen_table_d2(capsys):
    code, out, _ = run(capsys, "eigen", D2, "--max-degree", "20")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "dim", "betti", "inv_plus", "inv_minus"]
    rows = {int(l.split()[0]): l.split() for l in lines[1:]}
    assert rows[2][4] == "1"
    assert rows[6][4] == "2"
    assert rows[12][3] == "2"
    assert len(rows) == 20


def test_eigen_json_matches_table(capsys):
    code, table_out, _ = run(capsys, "eigen", D2, "--max-degree", "12")
    assert code == 0
    code, json_out, _ = run(capsys, "eigen", D2, "--max-degree", "12", "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "eigen"
    table_rows = [l.split() for l in table_out.strip().splitlines()[1:]]
    for row, entry in zip(table_rows, payload["degrees"]):
        assert [int(x) for x in row] == [
            entry["n"],
            entry["dim"],
            entry["betti"],
            entry["inv_plus"],
            entry["inv_minus"],
        ]


def test_cohomology_has_no_eigen_columns(capsys):
    code, out, _ = run(capsys, "cohomology", D2, "--max-degree", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(d["inv_plus"] is None for d in payload["degrees"])
    assert payload["degrees"][6]["betti"] == 2


def test_cohomology_base_space(capsys):
    code, out, _ = run(
        capsys, "cohomology", S2, "--space", "base", "--max-degree", "6", "--format", "json"
    )
    assert code == 0
    bettis = [d["betti"] for d in json.loads(out)["degrees"]]
    assert bettis == [1, 0, 1, 0, 0, 0]


def test_eigen_rejects_space_without_involution(capsys):
    code, _, err = run(capsys, "eigen", D2, "--space", "loop")
    assert code == 1
    assert "NoInvolution" in err


@pytest.mark.parametrize("exc, category", [(RuntimeError("boom"), "RuntimeError")])
def test_internal_errors_exit_3_without_traceback(capsys, monkeypatch, exc, category):
    def broken(model, cap):
        raise exc

    monkeypatch.setattr(loopinv.cli, "eigen_table", broken)
    code, out, err = run(capsys, "eigen", D2, "--max-degree", "8")
    assert code == 3
    assert out == ""
    assert err.startswith(f"internal error[{category}]: ")
    assert "Traceback" not in err


def test_bfk_enumeration(capsys):
    code, out, _ = run(capsys, "bfk", "--d", "2", "--j-max", "5")
    assert code == 0
    rows = [l.split() for l in out.strip().splitlines()[1:]]
    assert rows == [["1", "17", "56"], ["3", "29", "92"], ["5", "41", "128"]]


def test_bfk_json_schema(capsys):
    code, out, _ = run(capsys, "bfk", "--d", "3", "--j-max", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [{"j": 1, "i": 29, "m_min": 86}]


def test_bfk_rejects_d1(capsys):
    code, _, err = run(capsys, "bfk", "--d", "1", "--j-max", "5")
    assert code == 2
    assert "usage error" in err


def test_bfk_j_max_at_the_bound(capsys):
    code, out, err = run(capsys, "bfk", "--d", "2", "--j-max", str(J_MAX_LIMIT))
    assert (code, err) == (0, "")
    rows = [l.split() for l in out.splitlines()[1:]]
    assert len(rows) == J_MAX_LIMIT // 2
    assert rows[-1] == ["9999", "60005", "180020"]
    code, out, _ = run(capsys, "bfk", "--help")
    assert code == 0
    assert f"at most {J_MAX_LIMIT}" in " ".join(out.split())


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_bfk_j_max_above_the_bound_is_a_usage_error(capsys, fmt):
    code, out, err = run(capsys, "bfk", "--d", "2", "--j-max", str(J_MAX_LIMIT + 1), "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"usage error: --j-max must be <= {J_MAX_LIMIT}\n"


def test_pseudoisotopy_rows(capsys):
    code, out, _ = run(capsys, "pseudoisotopy", D2, "--max-degree", "24", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["reliable_max_i"] == 21
    assert payload["compact_attested"] is False
    by_i = {r["i"]: r for r in payload["rows"]}
    assert by_i[3]["invP_plus"] == 1
    assert by_i[11]["invP_plus"] == 2
    assert by_i[17]["invP_minus"] == 1
    assert by_i[17]["invA_plus"] == 1
    for r in payload["rows"]:
        assert r["invP_plus"] == r["invA_minus"]


def test_pseudoisotopy_compact_attestation(capsys):
    code, out, err = run(
        capsys, "pseudoisotopy", D2, "--max-degree", "12", "--assume-compact", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["compact_attested"] is True
    code, out, err = run(capsys, "pseudoisotopy", D2, "--max-degree", "12")
    assert code == 0
    assert "compact" in err


def test_point_model_eigen(capsys):
    code, out, _ = run(capsys, "eigen", POINT, "--max-degree", "9", "--format", "json")
    assert code == 0
    degrees = json.loads(out)["degrees"]
    assert [d["inv_plus"] for d in degrees] == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert [d["inv_minus"] for d in degrees] == [0, 0, 1, 0, 0, 0, 1, 0, 0]


def test_series_command(capsys):
    code, out, _ = run(capsys, "series", "1/(1-t^4) + t^12/(1-t^12)", "--max-degree", "14")
    assert code == 0
    rows = [l.split() for l in out.strip().splitlines()[1:]]
    coeffs = [int(r[1]) for r in rows]
    assert coeffs == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0]


def test_series_rejects_bad_expression(capsys):
    code, _, err = run(capsys, "series", "1/(1-q^4)")
    assert code == 1
    assert "SeriesSyntax" in err


@pytest.mark.parametrize("expr", ["٣*t^٢", "t^٢", "1/(1-t^٤)"])
def test_series_non_ascii_digits_are_syntax_errors(capsys, expr):
    # series numbers are [0-9]+; Arabic-Indic digits are not read as numbers
    code, out, err = run(capsys, "series", expr, "--max-degree", "5")
    assert (code, out) == (1, "")
    assert err == f"SeriesSyntax: cannot parse series term {expr!r}\n"


def test_series_max_degree_at_the_bound(capsys):
    code, out, err = run(capsys, "series", "1/(1-t^1)", "--max-degree", str(SERIES_MAX_DEGREE))
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == SERIES_MAX_DEGREE
    assert rows[-1].split() == [str(SERIES_MAX_DEGREE - 1), "1"]
    code, out, _ = run(capsys, "series", "--help")
    assert code == 0
    assert f"at most {SERIES_MAX_DEGREE}" in " ".join(out.split())


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_series_max_degree_above_the_bound_is_a_usage_error(capsys, fmt):
    argv = ["series", "1/(1-t^1)", "--max-degree", str(SERIES_MAX_DEGREE + 1), "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: --max-degree must be <= {SERIES_MAX_DEGREE}\n"


@pytest.mark.parametrize("command", ["cohomology", "eigen", "pseudoisotopy"])
@pytest.mark.parametrize("cap", [MAX_CAP + 1, 999_999_999_999])
def test_a_cap_over_the_budget_is_refused_before_any_table_is_built(capsys, command, cap):
    # refused with exit 1 before any list of the cap's length exists: the
    # whole request, model parsing included, traces less than 1 MB
    tracemalloc.start()
    try:
        code, out, err = run(capsys, command, S2, "--max-degree", str(cap))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == f"BudgetExceeded: cap {cap} is over the largest cap, {MAX_CAP}\n"
    assert peak < 1_000_000
    code, out, _ = run(capsys, command, "--help")
    assert code == 0 and f"at most {MAX_CAP}" in " ".join(out.split())


def test_validate_good_model(capsys):
    code, out, _ = run(capsys, "validate", S2)
    assert code == 0
    assert "ok" in out
    assert "d b = a^2" in out


def test_validate_square_nonzero(capsys, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("gen a 2\ngen b 3\ngen c 4\nd b = a^2\nd c = a*b\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out) == (1, "")
    assert err == "NotSquareZero: d^2(c) = a^3 != 0\n"


def test_validate_warns_not_minimal(capsys, tmp_path):
    warned = tmp_path / "warned.model"
    warned.write_text("gen a 3\ngen b 2\nd b = a\n")
    code, _, err = run(capsys, "validate", str(warned))
    assert code == 0
    assert err == "warning[NotMinimal]: d(b) = a has a linear term; the model is valid but not minimal\n"


@pytest.mark.parametrize("command", ["validate", "eigen"])
def test_non_ascii_digits_are_unexpected_characters(capsys, tmp_path, command):
    # the grammar's int is [0-9]+; Arabic-Indic two and three are not digits of it
    bad = tmp_path / "arabic.model"
    bad.write_text("gen a ٢\ngen b ٣\nd b = a^٢\n", encoding="utf-8")
    code, out, err = run(capsys, command, str(bad))
    assert (code, out) == (1, "")
    assert err == "SyntaxError: line 1, column 7: unexpected character '٢'\n"


def test_validate_simple_connectivity(capsys, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("gen a 1\nd a = 0\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "SimpleConnectivity" in err


@pytest.mark.parametrize("kind", ["missing", "directory", "empty", "not-utf8"])
@pytest.mark.parametrize("command", ["validate", "eigen", "pseudoisotopy"])
def test_missing_model_file_is_usage_error(capsys, tmp_path, command, kind):
    if kind == "empty":  # not read as the current directory
        path, reason = "", "the path is empty"
    elif kind == "not-utf8":
        path = str(tmp_path / "latin1.model")
        Path(path).write_bytes(b"gen a 2\n\xff\n")
        reason = "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"
    else:
        path = str(tmp_path / "nope.model") if kind == "missing" else str(tmp_path)
        number = errno.ENOENT if kind == "missing" else errno.EISDIR
        reason = f"[Errno {number}] {os.strerror(number)}: {path!r}"
    code, out, err = run(capsys, command, path)
    assert (code, out) == (2, "")
    assert err == f"usage error: cannot read model file {path or repr(path)}: {reason}\n"


def test_max_degree_minimum(capsys):
    code, _, err = run(capsys, "eigen", D2, "--max-degree", "3")
    assert code == 2
    assert "max-degree" in err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, canonical",
    [
        (["eigen", S2, "--max", "6"], ["eigen", S2, "--max-degree", "6"]),
        (["eigen", S2, "--m", "5"], ["eigen", S2, "--max-degree", "5"]),
        (["validate", S2, "--form", "json"], ["validate", S2, "--format", "json"]),
        (["eigen", "--max-degree=6", S2], ["eigen", S2, "--max-degree", "6"]),
        (["eigen", S2, "--max-degree", "8", "--max-degree", "6"], ["eigen", S2, "--max-degree", "6"]),
        (
            ["pseudoisotopy", "--assume-compact", S2, "--max-degree", "8"],
            ["pseudoisotopy", S2, "--max-degree", "8", "--assume-compact"],
        ),
        (["bfk", "--d=2"], ["bfk", "--d", "2"]),
        (["eigen", S2, "--bogus", "-h"], ["eigen", "-h"]),  # help wins over an unknown option
    ],
    ids=[
        "prefix-max",
        "prefix-m",
        "prefix-form",
        "equals-first",
        "repeat",
        "flag-first",
        "d-equals",
        "help-after-unknown",
    ],
)
def test_argv_forms_match_the_canonical_argv(capsys, argv, canonical):
    code, out, err = run(capsys, *canonical)
    assert (code, err) == (0, "") and out
    assert run(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize(
    "argv, command",
    [
        ([], None),
        (["frobnicate"], None),
        (["eigen", S2, "--bogus"], "eigen"),
        (["eigen", S2, "--max-degree"], "eigen"),
        (["eigen", S2, "--max-degree", "x"], "eigen"),
        (["eigen", S2, "--format", "xml"], "eigen"),
        (["eigen"], "eigen"),
        (["bfk", "--j-max", "3"], "bfk"),
        (["eigen", S2, "extra"], "eigen"),
        (["validate", S2, "--space", "loop"], "validate"),
        (["pseudoisotopy", S2, "--assume-compact=yes"], "pseudoisotopy"),
    ],
    ids=[
        "no-command",
        "unknown-command",
        "unknown-option",
        "missing-value",
        "not-an-int",
        "bad-choice",
        "missing-model",
        "missing-d",
        "extra-positional",
        "option-of-another-command",
        "value-on-a-flag",
    ],
)
def test_malformed_argv_is_a_usage_error_with_the_usage_line(capsys, argv, command):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ")
    usage = f"usage: loopinv {command} [-h]" if command else "usage: loopinv [-h] [--version]"
    assert err.splitlines()[1].startswith(usage)


@pytest.mark.parametrize(
    "argv",
    [["series", "-t^2", "--max-degree", "5"], ["series", "--", "-t^2", "--max-degree", "5"]],
    ids=["bare", "after-double-dash"],
)
def test_series_expression_may_start_with_a_minus(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert [line.split()[1] for line in out.splitlines()[1:]] == ["0", "0", "-1", "0", "0"]


HELP_DEFAULTS = {
    "validate": {"--format": "default table"},
    "cohomology": {"--max-degree": "default 40", "--format": "default table", "--space": "default borel"},
    "eigen": {"--max-degree": "default 40", "--format": "default table", "--space": "default borel"},
    "pseudoisotopy": {
        "--max-degree": "default 40",
        "--format": "default table",
        "--assume-compact": "default off",
    },
    "bfk": {"--d": "required", "--j-max": "default 5", "--format": "default table"},
    "series": {"--max-degree": "default 40", "--format": "default table"},
}


def test_help_names_every_command_and_option_with_its_default(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: loopinv ")
    listed = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
    assert set(HELP_DEFAULTS) <= listed
    for command, defaults in HELP_DEFAULTS.items():
        for flag in ("-h", "--help"):
            code, out, err = run(capsys, command, flag)
            assert (code, err) == (0, ""), command
            lines = out.splitlines()
            assert lines[0].startswith(f"usage: loopinv {command} ")
            for option, default in defaults.items():
                at = [i for i, line in enumerate(lines) if line.split()[:1] == [option]]
                assert len(at) == 1, (command, option)
                assert lines[at[0] + 1].endswith(f"({default})"), (command, option)
    assert run(capsys, "--version") == (0, "loopinv 0.1.0\n", "")


def test_repeated_runs_are_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "eigen", D2, "--max-degree", "16", "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "pseudoisotopy", D2, "--max-degree", "16")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_successive_calls_match_fresh_interpreters(capsys):
    commands = [
        ["eigen", S2, "--max-degree", "12"],
        ["cohomology", D2, "--space", "loop", "--max-degree", "10", "--format", "json"],
        ["pseudoisotopy", S2, "--max-degree", "12"],
        ["eigen", D2, "--space", "base"],
        ["series", "1/(1-t^4)", "--max-degree", "9"],
        ["bfk", "--d", "2"],
        ["eigen", S2, "--max-degree", "3"],
        ["validate", S2, "--format", "json"],
        ["frobnicate"],
    ]
    src = str(Path(loopinv.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = "import sys; from loopinv.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in commands:
        fresh = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["eigen", S2, "--max-degree", "400"],  # more than a pipe buffer: the write fails
        ["validate", S2, "--format", "json"],  # buffered: the flush fails
        ["--help"],
        ["--version"],
        ["eigen", "--help"],
    ],
)
def test_closed_stdout_exits_141_and_prints_nothing(argv):
    src = str(Path(loopinv.cli.__file__).resolve().parents[1])
    script = f"import sys; sys.path.insert(0, {src!r}); import loopinv.cli as c; sys.exit(c.main())"
    read_end, write_end = os.pipe()
    os.close(read_end)  # as `| head -1` does once it has its line
    try:
        proc = subprocess.run(
            [sys.executable, "-I", "-c", script, *argv], stdout=write_end, stderr=subprocess.PIPE
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_ctrl_c_exits_130_and_prints_nothing():
    # the table's computation is interrupted as by Ctrl-C: SIGINT raises
    # KeyboardInterrupt inside the command, which main turns into 128 + SIGINT
    src = str(Path(loopinv.cli.__file__).resolve().parents[1])
    script = (
        f"import signal, sys; sys.path.insert(0, {src!r}); import loopinv.cli as c\n"
        "c.eigen_table = lambda model, cap: signal.raise_signal(signal.SIGINT)\n"
        "sys.exit(c.main())"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", script, "eigen", S2, "--max-degree", "24"], capture_output=True
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (130, b"", b"")


def test_importing_the_cli_loads_no_argparse_gettext_locale_dataclasses_or_inspect():
    src = str(Path(loopinv.cli.__file__).resolve().parents[1])

    def modules(code):
        code += "; print(*sys.modules, sep=chr(10))"
        argv = [sys.executable, "-I", "-c", code]
        return set(subprocess.run(argv, capture_output=True, text=True, check=True).stdout.split())

    # against a bare interpreter, so that what `site` preloads does not count
    added = modules(f"import sys; sys.path.insert(0, {src!r}); import loopinv.cli")
    added -= modules("import sys")
    assert "loopinv.cli" in added
    assert not added & {"argparse", "gettext", "locale", "dataclasses", "inspect"}, sorted(added)


def test_serving_requests_imports_no_module_after_the_cli():
    # a module imported lazily would be imported inside the first timed request
    src = str(Path(loopinv.cli.__file__).resolve().parents[1])
    requests = [
        ["eigen", "models/s2.model", "--max-degree", "24", "--format", "json"],
        ["pseudoisotopy", "models/s2.model", "--max-degree", "24"],
        ["cohomology", "benchmark/inputs/s2xs2.model", "--space", "borel", "--max-degree", "10"],
        ["cohomology", "models/s2.model", "--space", "loop", "--max-degree", "12"],
    ]
    script = (
        f"import contextlib, io, sys; sys.path.insert(0, {src!r}); import loopinv.cli\n"
        "before = set(sys.modules)\n"
        f"for argv in {requests!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert loopinv.cli.main(argv) == 0, argv\n"
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True,
                          cwd=REPO_ROOT, check=True)
    assert proc.stdout == "\n"


@pytest.mark.parametrize("ending", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_line_endings_read_as_lf(capsys, tmp_path, ending):
    # the model is read as bytes and decoded; splitlines reads every line ending
    twin = tmp_path / "twin.model"
    twin.write_bytes(Path(D2).read_bytes().replace(b"\n", ending))
    assert ending in twin.read_bytes()
    for argv in (["validate"], ["eigen", "--max-degree", "16"]):
        assert run(capsys, *argv, str(twin)) == run(capsys, *argv, D2)


# Golden bytes: (case, argv, exit code, stderr), with stdout in
# tests/golden/<case>.out (empty when there is no such file), or for a
# case of DIGESTS its md5.  Paths are relative to the repository root, as
# the JSON payloads echo them.
REPO_ROOT = MODELS_DIR.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_COMPACT_NOTE = (
    "note: results assume the model comes from a simply-connected compact "
    "manifold (pass --assume-compact to silence)\n"
)
GOLDEN = [
    ("validate-table", ["validate", "models/s2.model"], 0, ""),
    ("validate-json", ["validate", "models/s2.model", "--format", "json"], 0, ""),
    ("cohomology-table", ["cohomology", "models/s2.model", "--space", "base", "--max-degree", "8"], 0, ""),
    (
        "cohomology-json",
        ["cohomology", "models/s2.model", "--space", "base", "--max-degree", "8", "--format", "json"],
        0,
        "",
    ),
    ("eigen-table", ["eigen", "models/sphere-bundle-d2.model", "--max-degree", "12"], 0, ""),
    # S^2 x S^2 at cap 50, where most g-free columns are cleared
    ("eigen-s2xs2-table", ["eigen", "benchmark/inputs/s2xs2.model", "--max-degree", "50"], 0, ""),
    (
        "eigen-json",
        ["eigen", "models/sphere-bundle-d2.model", "--max-degree", "12", "--format", "json"],
        0,
        "",
    ),
    (
        "pseudoisotopy-table",
        ["pseudoisotopy", "models/sphere-bundle-d2.model", "--max-degree", "12"],
        0,
        _COMPACT_NOTE,
    ),
    (
        "pseudoisotopy-compact-table",
        ["pseudoisotopy", "models/sphere-bundle-d2.model", "--max-degree", "12", "--assume-compact"],
        0,
        "",
    ),
    (
        "pseudoisotopy-json",
        ["pseudoisotopy", "models/sphere-bundle-d2.model", "--max-degree", "12", "--format", "json"],
        0,
        "",
    ),
    ("bfk-table", ["bfk", "--d", "2", "--j-max", "5"], 0, ""),
    ("bfk-json", ["bfk", "--d", "2", "--j-max", "5", "--format", "json"], 0, ""),
    ("bfk-empty-table", ["bfk", "--d", "2", "--j-max", "0"], 0, ""),
    ("bfk-empty-json", ["bfk", "--d", "2", "--j-max", "0", "--format", "json"], 0, ""),
    ("series-table", ["series", "1/(1-t^4) + t^12/(1-t^12)", "--max-degree", "14"], 0, ""),
    (
        "series-json",
        ["series", "1/(1-t^4) + t^12/(1-t^12)", "--max-degree", "14", "--format", "json"],
        0,
        "",
    ),
    (
        "usage-error",
        ["eigen", "models/s2.model", "--max-degree", "3"],
        2,
        "usage error: --max-degree must be >= 4\n",
    ),
    (
        "no-involution",
        ["eigen", "models/s2.model", "--space", "loop", "--format", "json"],
        1,
        "NoInvolution: space 'loop' carries no involution; use --space borel\n",
    ),
    # factors out of order, read with the Koszul sign: d z = -7/2*x*y
    ("validate-koszul-sign", ["validate", "tests/golden/koszul-sign.model"], 0, ""),
    (
        "bfk-negative-j-max",
        ["bfk", "--d", "2", "--j-max", "-1"],
        2,
        "usage error: j_max must be >= 0\n",
    ),
    # a denominator needs a numerator: a coefficient, t or both
    (
        "series-bare-denominator",
        ["series", "/(1-t)"],
        1,
        "SeriesSyntax: cannot parse series term '/(1-t)'\n",
    ),
    # a `*` stands only before t
    ("series-star-alone", ["series", "2*"], 1, "SeriesSyntax: cannot parse series term '2*'\n"),
    (
        "series-star-before-denominator",
        ["series", "2*/(1-t^2)"],
        1,
        "SeriesSyntax: cannot parse series term '2*/(1-t^2)'\n",
    ),
    # the first bad line is reported: line 4 is not homogeneous, line 5 lacks a `*`
    (
        "validate-first-error",
        ["validate", "tests/golden/first-error.model"],
        1,
        "DegreeMismatch: line 4: d(b) = a is not homogeneous of degree 4 (= degree(b) + 1); "
        "term degrees are [2]\n",
    ),
]
# Cases that exit 0 with an empty stderr, kept by the md5 of their stdout:
# {case: (argv, md5, plans)}.  ``plans`` is, for each table the command
# ranks (an eigen table's Borel table; pseudoisotopy's Borel, then base
# table), its plan (``cohomology._plan``) as (route, multiplicity) per
# distinct layout, with "chain+head" for a chain layout whose head lists
# more than one monomial; None pins the bytes alone.  Between them the
# frontier rows take every route, and each route must print the bytes the
# chain route printed.
S2XS2, FLAG3 = "benchmark/inputs/s2xs2.model", "models/flag3.model"
S2CUBE = "tests/golden/s2cube.model"  # (S^2)^3
DIGESTS = {
    "eigen-s2xs2-60": (["eigen", S2XS2, "--max-degree", "60"], "5b3fecbd0453206787bf7eee2be3063d",
                       [[("koszul", 2)]]),
    # the product route with one Koszul factor
    "eigen-s2cube-22": (["eigen", S2CUBE, "--max-degree", "22"], "81684f62f845a48c4e20df90091216f8",
                        [[("koszul", 3)]]),
    # the product route with one shared factor
    "eigen-s3xs3-24": (["eigen", "benchmark/inputs/s3xs3.model", "--max-degree", "24"],
                       "9c1ff277977a20f11587af4f198dd868", [[("chain", 2)]]),
    "borel-s2xs2-10": (["cohomology", S2XS2, "--space", "borel", "--max-degree", "10"],
                       "5f7454707dc24b13e95509a5a4fa0145", [[("chain", 2)]]),
    "eigen-s2xs2-120": (["eigen", S2XS2, "--max-degree", "120"], "59f135824b35435a6cfa3f078b9eb673",
                        [[("koszul", 2)]]),
    "eigen-s2cube-36": (["eigen", S2CUBE, "--max-degree", "36"], "ca0da830311344a029a9b4c214f899f3",
                        [[("koszul", 3)]]),
    # S^2 x S^2' (d e = 2*c^2): its factors laid out apart, S^2 x S^2's bytes
    "eigen-s2s2prime-60": (["eigen", "tests/golden/s2s2prime.model", "--max-degree", "60"],
                           "5b3fecbd0453206787bf7eee2be3063d", [[("koszul", 1), ("koszul", 1)]]),
    # (S^2)^4: one factor layout, ranked once
    "eigen-s2fourth-40": (["eigen", "tests/golden/s2fourth.model", "--max-degree", "40"],
                          "92eee6248fd62980041055fd9ab023bb", [[("koszul", 4)]]),
    # SU(3)/T^2 and Gr_2(C^4), pure and not products
    "eigen-flag3-60": (["eigen", FLAG3, "--max-degree", "60"], "e87bee7bae18e80d0ae55a1bf6866b73",
                       [[("koszul", 1)]]),
    "eigen-flag3-100": (["eigen", FLAG3, "--max-degree", "100"], "0ff32960ad4c529e62d2e4a4fde51eb1",
                        [[("koszul", 1)]]),
    "pseudoisotopy-gr24-40": (
        ["pseudoisotopy", "models/gr24.model", "--max-degree", "40", "--assume-compact"],
        "6982f95942f9cb7a21676bb7539d4566",
        [[("koszul", 1)], [("chain", 1)]],
    ),
    # a2 b2 x3 y3 z4, d x = a^2, d y = a*b, d z = a*y - b*x: not pure
    "eigen-nonpure-30": (["eigen", "tests/golden/nonpure.model", "--max-degree", "30"],
                         "e6fea6343c42462b66975d3da2f336b4", [[("chain+head", 1)]]),
    "loop-flag3-24": (["cohomology", FLAG3, "--space", "loop", "--max-degree", "24"],
                      "065343cd41f142b8a5bd6035b5d8bae7", [[("koszul-no-g", 1)]]),
    "eigen-s2": (["eigen", "models/s2.model"], "2758f22b9fde996daefca6424c6c641c", None),
    "eigen-s2-json": (["eigen", "models/s2.model", "--format", "json"],
                      "6ce94c3f354907924111173cfd66f286", None),
    "eigen-s2-60": (["eigen", "models/s2.model", "--max-degree", "60"],
                    "e7abb71470f8355d1b4521382521304c", None),
    "eigen-s2-200": (["eigen", "models/s2.model", "--max-degree", "200"],
                     "2ca098b2b228039167bb4b827a61b8df", None),
    "eigen-s2xs2-30": (["eigen", S2XS2, "--max-degree", "30"], "6dee2c98ebdc1df3214b4c2d601ec78f", None),
    "base-s2-12": (["cohomology", "models/s2.model", "--space", "base", "--max-degree", "12"],
                   "1bc0726648b1c18e376ead75b6db3559", None),
    "loop-s2-40": (["cohomology", "models/s2.model", "--space", "loop", "--max-degree", "40"],
                   "f550a28453e22dc2c510268064b04895", None),
    "loop-s4-40": (["cohomology", "models/s4.model", "--space", "loop", "--max-degree", "40"],
                   "6edcacef467f061dde70ca3c6922dd52", None),
    "borel-s2xs2-20": (["cohomology", S2XS2, "--space", "borel", "--max-degree", "20"],
                       "302bb94102a5645895afc62e58e627b5", None),
    "pseudoisotopy-s2-40": (
        ["pseudoisotopy", "models/s2.model", "--max-degree", "40", "--assume-compact"],
        "bb1f81d4bed7a25f92bd19ca98c3fc8e",
        None,
    ),
    "pseudoisotopy-s3xs3-30": (
        ["pseudoisotopy", "benchmark/inputs/s3xs3.model", "--max-degree", "30", "--assume-compact"],
        "605529e1d94f2cf77f0cfe319aeb91ca",
        None,
    ),
    "series-default-json": (["series", "1/(1-t^4)", "--format", "json"],
                            "81332f3318b0655d748f47618a78db9e", None),
    # 100000 coefficients, written by one %-template per entry
    "series-json-100000": (["series", "1/(1-t^4) + t^12/(1-t^12)", "--max-degree", "100000",
                            "--format", "json"], "46e0d1ebb494fb171a0697b3a0f75ac7", None),
    # every bundled and benchmark model validates (models/s2.model: validate-table)
    **{
        f"validate-{path.removesuffix('.model').replace('/', '-')}": (["validate", path], md5, None)
        for path, md5 in [
            ("benchmark/inputs/s2xs2.model", "0549b5b8142889d7f78a65924ef4ac7a"),
            ("benchmark/inputs/s3xs3.model", "779ea51a57a9ac27a655b265c3170e08"),
            ("models/cp2.model", "fc56af5e4f619ad43727ac79f76314d1"),
            ("models/cp3.model", "7d737f0aef73a6268dbad0bcca24468f"),
            ("models/flag3.model", "45c8d7ec56542f93ba4b882cec5020c9"),
            ("models/gr24.model", "fdfce9e47f39fe680cac3aa205409a6f"),
            ("models/point.model", "c1526c4335d44537021e54bc85c6d22d"),
            ("models/s2xs2.model", "0549b5b8142889d7f78a65924ef4ac7a"),
            ("models/s4.model", "f5b8c83b7b2ffc1f4eae2d69dfb38e13"),
            ("models/sphere-bundle-d2.model", "c0d0a33d12829a5e9d2bdbdbc8b21671"),
            ("models/sphere-bundle-d3.model", "19760e8f6408eaa1ad4e590818c8d36c"),
            ("models/sphere-bundle-d4.model", "68c83e9eb2004fb42a8061d21d424605"),
        ]
    },
}
GOLDEN += [(case, argv, 0, "") for case, (argv, _, _) in DIGESTS.items()]


def _spy_plans(monkeypatch) -> list:
    """The plan of each table ranked from now on, as in ``DIGESTS``."""
    plans = []
    real_plan, real_build = cohomology._plan, cohomology.build_layout

    def plan(model, top):
        planned = real_plan(model, top)
        plans.append([(route, k) for _, route, k, *_ in planned[2]])
        return planned

    def build(model, top):
        counts, layouts = real_build(model, top)
        plans[-1] = [
            ("chain+head" if route == "chain" and len(layout.head) > 1 else route, k)
            for (route, k), (layout, _) in zip(plans[-1], layouts)
        ]
        return counts, layouts

    monkeypatch.setattr(cohomology, "_plan", plan)
    monkeypatch.setattr(cohomology, "build_layout", build)
    return plans


@pytest.mark.parametrize("case, argv, code, err", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_bytes(capsys, monkeypatch, case, argv, code, err):
    monkeypatch.chdir(REPO_ROOT)
    _, md5, plans = DIGESTS.get(case, (argv, None, None))
    spied = _spy_plans(monkeypatch) if plans else None
    got = run(capsys, *argv)
    if md5:
        got = (got[0], hashlib.md5(got[1].encode("utf-8")).hexdigest(), got[2])
        out = md5
    else:
        path = GOLDEN_DIR / f"{case}.out"
        out = path.read_text(encoding="utf-8") if path.exists() else ""
    assert got == (code, out, err)
    assert spied == plans


def test_golden_bytes_validate_every_bundled_and_benchmark_model():
    patterns = ("models/*.model", "benchmark/inputs/*.model")
    models = {p.relative_to(REPO_ROOT).as_posix() for g in patterns for p in REPO_ROOT.glob(g)}
    assert models <= {argv[1] for _, argv, code, _ in GOLDEN if argv[0] == "validate" and not code}


# The CLI writes its JSON by templates; json.dumps(payload, indent=2) is the oracle.
JSON_GOLDEN = [(case, argv) for case, argv, code, _ in GOLDEN if "json" in argv and not code]


@pytest.mark.parametrize("case, argv", JSON_GOLDEN, ids=[case for case, _ in JSON_GOLDEN])
def test_json_is_json_dumps_with_indent_2(capsys, monkeypatch, case, argv):
    monkeypatch.chdir(REPO_ROOT)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("command", ["eigen", "cohomology", "pseudoisotopy"])
def test_json_escapes_the_model_path(capsys, tmp_path, command):
    # the payload echoes the path: a quote, a backslash and a non-ASCII letter are escaped
    path = tmp_path / 'a"b\\cé' / "s2.model"
    path.parent.mkdir()
    path.write_bytes(Path(S2).read_bytes())
    code, out, _ = run(capsys, command, str(path), "--max-degree", "8", "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert json.loads(out)["model"] == str(path)
    assert f'"model": {json.dumps(str(path))},' in out and "é" not in out


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``workloads`` and ``check`` modules, read from
    ``benchmark/`` (nothing there is written)."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmark"))
    import check
    import workloads

    return workloads, check


def test_table_requests_build_no_row_objects(capsys, monkeypatch, bench):
    # s2-deep and multigen-betti print their tables from the columns: no
    # DegreeSlice or PseudoisotopyRow is built, only asked-for row views
    workloads, _ = bench
    built = []
    for cls in (DegreeSlice, PseudoisotopyRow):
        real = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, real=real: built.append(a) or real(self, *a))
    monkeypatch.chdir(REPO_ROOT)
    for argv, _ in workloads.FIXED["s2-deep"] + workloads.FIXED["multigen-betti"]:
        assert run(capsys, *argv)[0] == 0
    assert built == []
    s2 = parse_model(Path(S2).read_text(encoding="utf-8"))
    table, pt = eigen_table(borel_model(s2), 24), pseudoisotopy_table(s2, 24)
    assert [table.slice(n) for n in range(24)] == list(table.slices)
    assert [pt.row(i) for i in range(22)] == list(pt.rows)
    assert len(built) == 2 * (24 + 22)


def test_benchmark_requests_print_their_recorded_digests(capsys, monkeypatch, tmp_path, bench):
    # every request of s2-deep, multigen-betti and random-batch at its recorded
    # seed, served through main, prints the stdout whose digest
    # benchmark/digests.json holds; random-batch's models are written to tmp_path
    workloads, check = bench
    recorded = json.loads((REPO_ROOT / "benchmark" / "digests.json").read_text(encoding="utf-8"))
    requests = {name: [argv for argv, _ in workloads.FIXED[name]] for name in workloads.FIXED}
    seed = workloads.DEFAULT_SEED
    batch = requests[f"random-batch@{seed}"] = []
    for i, (text, _) in enumerate(workloads.random_batch(seed)):
        path = tmp_path / f"m{i:02d}.model"
        path.write_text(text, encoding="utf-8")
        cap = str(workloads.RANDOM_CAP)
        batch += [["eigen", str(path), "--max-degree", cap],
                  ["cohomology", str(path), "--space", "loop", "--max-degree", cap]]
    assert sorted(requests) == sorted(recorded)
    monkeypatch.chdir(REPO_ROOT)
    for name, argvs in requests.items():
        got = []
        for argv in argvs:
            code, out, _ = run(capsys, *argv)
            got.append((code, check.digest(out)))
        assert got == [(0, digest) for digest in recorded[name]], name


# Model texts for the DSL fuzz: well-formed statements, shuffled DSL
# tokens and arbitrary characters, a few lines of each.
_NAMES = st.sampled_from(["a", "b", "c", "x", "alpha", "a_bar", "gen", "d", "q9"])
_DEGREES = st.sampled_from(["2", "3", "4", "5", "7", "1", "0", "12", "99999999999"])
_TERMS = st.sampled_from(
    ["a", "b", "c", "x", "a^2", "b^3", "a*b", "2*a*c", "1/3*c", "-a*x", "0", "3", "a^99999999"]
)
_TOKENS = st.sampled_from(
    ["gen", "d", "a", "b", "c", "=", "+", "-", "*", "^", "/", "2", "3", "0", "1/2", "#", "\t"]
)
_LINES = st.one_of(
    st.builds("gen {} {}".format, _NAMES, _DEGREES),
    st.builds(
        "d {} = {}".format,
        _NAMES,
        st.lists(_TERMS, min_size=1, max_size=3).map(" + ".join),
    ),
    st.lists(_TOKENS, max_size=8).map(" ".join),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=16),
)
MODEL_TEXTS = st.lists(_LINES, max_size=6).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(text=MODEL_TEXTS)
def test_model_dsl_fuzz_exits_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.model"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["cohomology", str(path), "--max-degree", "6"])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert "sys.set_int_max_str_digits" not in err.getvalue()


LONG = "9" * 4301  # one digit more than Python converts to an int by default


@pytest.mark.parametrize(
    "body, line, column",
    [
        (f"gen a {LONG}", 1, 7),
        (f"gen a 2\ngen b 3\nd b = {LONG}*a^2", 3, 7),
        (f"gen a 2\ngen b 3\nd b = 1/{LONG}*a^2", 3, 9),
        (f"gen a 2\ngen b 3\nd b = a^{LONG}*a", 3, 9),
    ],
    ids=["degree", "coefficient", "denominator", "exponent"],
)
def test_overlong_model_number_is_a_syntax_error(capsys, tmp_path, body, line, column):
    path = tmp_path / "long.model"
    path.write_text(body + "\n", encoding="utf-8")
    code, out, err = run(capsys, "cohomology", str(path))
    assert (code, out) == (1, "")
    where = f"line {line}, column {column}"
    assert err == f"SyntaxError: {where}: number with 4301 digits is too long\n"


TOP = "9" * 4300  # the longest number Python converts to text by default


@pytest.mark.parametrize("command", ["validate", "cohomology"])
def test_summed_coefficient_with_too_many_digits_is_a_syntax_error(capsys, tmp_path, command):
    # each term parses, but their sum has 4301 digits
    path = tmp_path / "sum.model"
    path.write_text(f"gen a 2\ngen b 3\nd b = {TOP}*a^2 + {TOP}*a^2\n", encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert "set_int_max_str_digits" not in err
    assert err == (
        "SyntaxError: line 3, column 7: the terms of a^2 sum to a coefficient "
        "with too many digits\n"
    )


@pytest.mark.parametrize("command", ["validate", "cohomology"])
def test_unprintable_square_zero_residual_is_a_model_error(capsys, tmp_path, command):
    # d^2(c) = N^2 a^3, and N^2 has 4400 digits
    half = "9" * 2200
    path = tmp_path / "residual.model"
    path.write_text(
        f"gen a 2\ngen b 3\ngen c 4\nd b = {half}*a^2\nd c = {half}*a*b\n", encoding="utf-8"
    )
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert "set_int_max_str_digits" not in err
    assert err == "NotSquareZero: d^2(c) != 0, with a coefficient too long to print\n"


@pytest.mark.parametrize("command", ["validate", "cohomology"])
@pytest.mark.parametrize(
    "body",
    [f"gen a 2\ngen b 3\nd b = a^{TOP}", f"gen a 2\ngen b {TOP}\nd b = a^2"],
    ids=["term-degree", "target-degree"],
)
def test_unprintable_degree_is_a_degree_mismatch(capsys, tmp_path, command, body):
    # every number parses, but 2 * (10^4300 - 1) and 10^4300 have 4301 digits
    path = tmp_path / "degree.model"
    path.write_text(body + "\n", encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert "set_int_max_str_digits" not in err
    assert err == (
        "DegreeMismatch: line 3: d(b) is not homogeneous of degree degree(b) + 1, "
        "with a degree too long to print\n"
    )


@pytest.mark.parametrize(
    "expr",
    [f"1/(1-t^{LONG})", f"{LONG}*t", f"t^{LONG}", "9" * 4300 + " + " + "9" * 4300],
    ids=["period", "coefficient", "power", "sum"],
)
def test_overlong_series_number_is_a_series_syntax_error(capsys, expr):
    code, out, err = run(capsys, "series", expr, "--max-degree", "8")
    assert (code, out) == (1, "")
    assert err.startswith("SeriesSyntax: number with 43")
    assert err.endswith("digits is too long (at most 4000)\n")


_SERIES_PARTS = st.one_of(
    st.sampled_from(["t", "^", "/", "(", ")", "+", "-", "*", "1-t^", "/(1-t^", " ", "0"]),
    st.integers(0, 10**12).map(str),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=3),
)
SERIES_EXPRS = st.lists(_SERIES_PARTS, max_size=12).map("".join)


@settings(max_examples=300, deadline=None)
@given(expr=SERIES_EXPRS)
def test_series_parser_fuzz_exits_cleanly(expr):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["series", expr, "--max-degree", "8"])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert "sys.set_int_max_str_digits" not in err.getvalue()
