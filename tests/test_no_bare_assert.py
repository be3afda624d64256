"""The library raises typed exceptions, never a bare ``assert``: asserts
vanish under ``python -O`` and would turn an internal fault into silence."""

import ast
import pathlib

import ospchar

SRC = pathlib.Path(ospchar.__file__).parent


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "bare assert in the library: " + ", ".join(found)
