"""Every double-backticked private name (``_name``) in the docstrings and
comments of a ``loopinv`` module is defined in that module, as a module
attribute or as an attribute of one of its classes, so a helper that is
renamed or deleted leaves no stale reference behind."""

import importlib
import inspect
import re
from pathlib import Path

import loopinv

SRC = Path(loopinv.__file__).parent


def _references() -> list[tuple[str, str]]:
    """(module, name) for each distinct double-backticked private name."""
    return [
        (f"loopinv.{path.stem}", name)
        for path in sorted(SRC.glob("*.py"))
        for name in sorted(set(re.findall(r"``(_[A-Za-z]\w*)``", path.read_text(encoding="utf-8"))))
    ]


def test_private_names_in_docstrings_are_defined_in_their_module():
    references = _references()
    assert len(references) > 10
    stale = []
    for module_name, name in references:
        module = loopinv if module_name == "loopinv.__init__" else importlib.import_module(module_name)
        classes = [c for c in vars(module).values()
                   if inspect.isclass(c) and c.__module__ == module.__name__]
        if not hasattr(module, name) and not any(hasattr(c, name) for c in classes):
            stale.append((module_name, name))
    assert not stale
