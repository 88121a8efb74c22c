"""The package docstring's quickstart runs, as written, on the current
API (with every warning an error), so the front page cannot drift from
what the package does."""

import contextlib
import io
import textwrap
import warnings

import repro


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
