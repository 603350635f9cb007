"""Module boundaries of the package: no private name crosses one.

Every path one module of src/vqr calls in another has a public name.  Two
ways of reaching a private name break that: reading a single-underscore
attribute of anything but self (``module._name``, ``obj._name``), and
importing one (``from .x import _y``).  Dunders (``__post_init__``,
``object.__setattr__``) are not private names.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "vqr").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _crossings(path: Path) -> tuple[list[str], list[str]]:
    """The private attribute reads on anything but self, and the private
    names of relative imports, each as 'file:line: text'."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads, imports = [], []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and _private(node.attr)
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
            reads.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and node.level:
            imports += [f"{path.name}:{node.lineno}: {alias.name}"
                        for alias in node.names if _private(alias.name)]
    return reads, imports


def test_sources_are_found():
    assert {"realism.py", "metrics.py", "trials.py"} <= {path.name for path in SOURCES}


def test_no_private_attribute_is_read_outside_self():
    reads = [read for path in SOURCES for read in _crossings(path)[0]]
    assert not reads, f"{len(reads)} private attribute reads:\n" + "\n".join(reads)


def test_no_private_name_is_imported():
    imports = [name for path in SOURCES for name in _crossings(path)[1]]
    assert not imports, f"{len(imports)} private names imported:\n" + "\n".join(imports)


def test_the_check_flags_both_crossings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from .metrics import _hidden, parse_kind\n"
        "class A:\n"
        "    def f(self, other):\n"
        "        self._x = other._y\n"
        "        return self._x, metrics._z, other.__class__\n",
        encoding="utf-8")
    reads, imports = _crossings(source)
    assert [read.split(": ")[1] for read in reads] == ["other._y", "metrics._z"]
    assert [name.split(": ")[1] for name in imports] == ["_hidden"]
