"""The front page cannot drift from what the package does: the package
docstring's quickstart runs, as written, on the current API (with every
warning an error), and every ``from repro... import ...`` in README.md's
python blocks names something the package still has."""

import ast
import contextlib
import importlib
import io
import re
import textwrap
import warnings
from pathlib import Path

import repro

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_block() -> str:
    """The literal block after ``Quickstart::`` in ``repro.__doc__``."""
    _, marker, rest = repro.__doc__.partition("Quickstart::\n")
    assert marker, "the package docstring has no Quickstart block"
    lines = []
    for line in rest.splitlines():
        if line.strip() and not line.startswith("    "):
            break
        lines.append(line)
    return textwrap.dedent("\n".join(lines)).strip() + "\n"


def test_quickstart_runs_as_written():
    code = quickstart_block()
    assert "result = solve_steady_state(network)" in code
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        exec(compile(code, "<repro quickstart>", "exec"), {})
    assert out.getvalue().startswith("A (up) vs B (right)")


def readme_imports() -> list[tuple[str, str]]:
    """``(module, name)`` for every ``from repro... import ...`` in the
    README's python blocks (parenthesised name lists included)."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(
        encoding="utf-8"), flags=re.S | re.M)
    assert blocks, "README.md has no python blocks"
    out = []
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                out.extend((node.module, alias.name) for alias in node.names)
    return out


def resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` would succeed."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_readme_imports_resolve():
    imports = readme_imports()
    assert imports, "README.md imports nothing from repro"
    missing = [f"from {m} import {n}" for m, n in imports
               if not resolves(m, n)]
    assert missing == []
