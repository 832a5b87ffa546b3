"""The README's Library block imports exactly the package's public names
and prints what its comments say, and every table field or method its
prose names exists."""

import contextlib
import io
import re

import loopinv
from support import MODELS_DIR, load_model

README = MODELS_DIR.parent / "README.md"


def _library() -> tuple[str, str]:
    """The Library section's code block and the prose after it."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library\n.*?^```python\n(.*?)^```\n(.*?)^## ", text, re.S | re.M).groups()


def test_library_block_imports_exactly_the_public_api():
    names = re.search(r"from loopinv import \((.*?)\)", _library()[0], re.S).group(1)
    assert sorted(n.strip() for n in names.split(",") if n.strip()) == sorted(loopinv.__all__)


def test_library_block_prints_its_comments(monkeypatch):
    monkeypatch.chdir(README.parent)
    block = _library()[0]
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 7
    for got, want in zip(printed, expected):
        if want.endswith(", ...]"):
            assert got.startswith(want[: -len("...]")]), (got, want)
        else:
            assert got == want


def test_library_prose_names_only_what_the_tables_have():
    # `table.X`, `table.X()`, `pt.X` and `pt.X()`: X is a column or a row
    # view (no call) or a method (a call) of what the two functions return
    model = load_model("sphere-bundle-d2.model")
    tables = {
        "table": loopinv.eigen_table(loopinv.borel_model(model), 8),
        "pt": loopinv.pseudoisotopy_table(model, 8),
    }
    named = re.findall(r"`(table|pt)\.(\w+)(\(?)", _library()[1])
    assert {owner for owner, _, _ in named} == set(tables)
    for owner, name, call in named:
        assert callable(getattr(tables[owner], name)) == bool(call), f"{owner}.{name}"
