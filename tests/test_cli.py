import contextlib
import errno
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
from loopinv.cli import J_MAX_LIMIT, SERIES_MAX_DEGREE, main
from loopinv.cohomology import MAX_CAP
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
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
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


# Golden bytes: (case, argv, exit code, stderr), with stdout in
# tests/golden/<case>.out (empty when there is no such file).  Paths are
# relative to the repository root, as the JSON payloads echo them.
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
]


@pytest.mark.parametrize("case, argv, code, err", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_bytes(capsys, monkeypatch, case, argv, code, err):
    monkeypatch.chdir(REPO_ROOT)
    path = GOLDEN_DIR / f"{case}.out"
    out = path.read_text(encoding="utf-8") if path.exists() else ""
    assert run(capsys, *argv) == (code, out, err)


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
