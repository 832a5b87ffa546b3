"""The README's Library block imports exactly the package's public names
and prints what its comments say."""

import contextlib
import io
import re

import loopinv
from support import MODELS_DIR

README = MODELS_DIR.parent / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library\n.*?^```python\n(.*?)^```", text, re.S | re.M).group(1)


def test_library_block_imports_exactly_the_public_api():
    names = re.search(r"from loopinv import \((.*?)\)", _library_block(), re.S).group(1)
    assert sorted(n.strip() for n in names.split(",") if n.strip()) == sorted(loopinv.__all__)


def test_library_block_prints_its_comments(monkeypatch):
    monkeypatch.chdir(README.parent)
    block = _library_block()
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
