"""The pipeline's records are named tuples: their fields cannot be assigned,
and importing the CLI loads no module to build them.  The package root
loads no submodule, and each module imports alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from quatbound.arith import factor
from quatbound.bound import BoundParams, assemble_bound

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_interpreter(code: str) -> str:
    """The stdout of code run by a new interpreter that sees only src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_cli_import_loads_no_record_machinery():
    # dataclasses imports inspect, which imports ast, dis and tokenize:
    # several ms of every process's start-up
    code = "import sys, quatbound.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert fresh_interpreter(code) == "[]\n"


# each module and the modules it imports, directly or not
LAYERS = {
    "arith": [],
    "quadfield": ["arith"],
    "classgroup": ["arith", "quadfield"],
    "weilsets": ["arith", "classgroup", "quadfield"],
    "mazur": ["arith", "quadfield"],
    "bound": ["arith", "classgroup", "mazur", "quadfield", "weilsets"],
    "cli": ["arith", "bound", "classgroup", "mazur", "quadfield", "weilsets"],
}


@pytest.mark.parametrize("module", [None, *LAYERS], ids=lambda m: m or "root")
def test_each_module_imports_alone(module):
    # the package root re-exports nothing, so it loads no submodule, and a
    # module loads only what it imports
    name = "quatbound" + (f".{module}" if module else "")
    code = (f"import sys, {name}; "
            "print(sorted(m for m in sys.modules if m.startswith('quatbound.')))")
    loaded = sorted([module, *LAYERS[module]]) if module else []
    assert fresh_interpreter(code) == f"{[f'quatbound.{m}' for m in loaded]}\n"


def test_fields_cannot_be_assigned(ctx20):
    report = assemble_bound(ctx20, BoundParams(mazur_bound=10**4))
    records = (ctx20, report.S[0].form, factor(-12), report.sets["A3"], report)
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
