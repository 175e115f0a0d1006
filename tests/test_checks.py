"""Checks of the checkout as a whole, so that one plain pytest run makes
them all: no module that pytest leaves unrewritten rests on `assert`, and
the benchmark's smoke test passes."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unrewritten_modules() -> list[Path]:
    """The modules whose asserts `python -O` strips: pytest rewrites the
    asserts of test modules and conftest.py only."""
    paths = [*ROOT.glob("src/quatbound/*.py"), *ROOT.glob("scripts/*.py"),
             *ROOT.glob("tests/*.py")]
    return sorted(p for p in paths if not p.name.startswith("test_") and p.name != "conftest.py")


def test_no_check_rests_on_assert():
    # under python -O an assert statement and an `if __debug__:` block
    # vanish, so every check in these modules must raise
    found = []
    for path in unrewritten_modules():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []


def test_benchmark_smoke():
    # one request per workload, plain and traced; a plain interpreter, so
    # that the script's own asserts run
    p = subprocess.run([sys.executable, "perfbench/smoke_test.py"], cwd=ROOT,
                       capture_output=True, text=True, timeout=600, check=False)
    assert (p.returncode, p.stdout) == (0, "ok\n"), p.stderr
