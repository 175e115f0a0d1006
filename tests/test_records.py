"""The pipeline's records are named tuples: their fields cannot be assigned,
and importing the CLI loads no module to build them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from quatbound.arith import factor
from quatbound.bound import BoundParams, assemble_bound

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_record_machinery():
    # dataclasses imports inspect, which imports ast, dis and tokenize:
    # several ms of every process's start-up
    code = "import sys, quatbound.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_fields_cannot_be_assigned(ctx20):
    report = assemble_bound(ctx20, BoundParams(mazur_bound=10**4))
    records = (ctx20, report.S[0].form, factor(-12), report.sets["A3"], report)
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
