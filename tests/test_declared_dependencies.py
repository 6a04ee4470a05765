"""Every third-party module the package imports is a declared dependency.

A clean ``pip install -e .`` installs only ``[project] dependencies``, so
an import of anything else breaks every entry point that loads the
importing module.  This walks each ``import`` and ``from ... import`` in
``src/repro`` and accepts a top-level name only if it is the standard
library, ``repro`` itself, or a declared dependency.
"""

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"


def declared_dependencies() -> set[str]:
    """Import names of ``[project] dependencies`` in pyproject.toml.

    Read with a regular expression: Python 3.10 has no ``tomllib``, and
    the ``[project]`` table is plain enough not to need a TOML parser.
    """
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S)
    assert project is not None, "pyproject.toml has no [project] table"
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project.group(1), re.M | re.S)
    assert deps is not None, "[project] declares no dependencies list"
    names = set()
    for requirement in re.findall(r"[\"']([^\"']+)[\"']", deps.group(1)):
        name = re.match(r"[A-Za-z0-9_.-]+", requirement.strip())
        assert name is not None, f"unparsable requirement {requirement!r}"
        names.add(name.group(0).lower().replace("-", "_"))
    return names


def imported_top_levels(path: Path) -> set[str]:
    """Top-level names of every absolute import in one source file."""
    tree = ast.parse(path.read_bytes(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_every_import_in_src_is_declared():
    declared = declared_dependencies()
    assert "numpy" in declared, "pyproject.toml's dependencies were not read"
    allowed = set(sys.stdlib_module_names) | {"repro"} | declared
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 100, "scan missed most of src/repro"
    undeclared = [
        f"{path.relative_to(REPO_ROOT).as_posix()}: {name}"
        for path in files
        for name in sorted(imported_top_levels(path) - allowed)
    ]
    assert not undeclared, (
        "imports of modules that pyproject.toml does not declare:\n"
        + "\n".join(undeclared)
    )
