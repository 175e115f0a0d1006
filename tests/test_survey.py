import re
import runpy
from hashlib import sha256
from pathlib import Path

from quatbound import cli
from quatbound.bound import BoundParams, assemble_bound
from quatbound.quadfield import make_field

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "survey_fields.py"
PIN = Path(__file__).resolve().parent / "data" / "survey_-1000.tsv"


def test_pinned_to_minus_1000(monkeypatch, capsys):
    # every fundamental D in [-1000, -3] of class number > 1 (296 fields,
    # all certified; in a fresh process 30 torus runs and 9 rho runs): stdout
    # is the recorded table byte for byte, the tab-separated header and rows
    # and then the band lines, and stderr holds one time line per row
    monkeypatch.setattr("sys.argv", [str(SCRIPT), "--min", "-1000"])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    out, err = capsys.readouterr()
    assert out == PIN.read_text()
    rows, times = out.splitlines()[1:-4], err.splitlines()
    assert len(times) == len(rows)
    for row, line in zip(rows, times):
        assert re.fullmatch(row.split("\t")[0] + r"\t\d+\.\d+", line), line


def test_flags_reach_the_bound(monkeypatch, capsys):
    # each row's union is BoundParams(s0_count=2, mazur_bound=50)'s; -31 reads both flags
    argv = [str(SCRIPT), "--min", "-40", "--s0-count", "2", "--mazur-bound", "50"]
    monkeypatch.setattr("sys.argv", argv)
    runpy.run_path(str(SCRIPT), run_name="__main__")
    rows = [row.split("\t") for row in capsys.readouterr().out.splitlines()[1:-4]]
    assert [int(row[0]) for row in rows] == [-15, -20, -23, -24, -31, -35, -39, -40]
    for row in rows:
        rep = assemble_bound(make_field(int(row[0])), BoundParams(s0_count=2, mazur_bound=50))
        assert row[-1] == ",".join(str(p) for p in sorted(rep.union))


def test_hash_column_is_the_cli_report(monkeypatch, capsys):
    # each row's last column is the SHA-256 of what `quatbound bound` prints
    # for its D at the script's flags, and the columns before it are the
    # row without --hash
    monkeypatch.setattr("sys.argv", [str(SCRIPT), "--min", "-40", "--hash"])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    out = capsys.readouterr().out.splitlines()
    pinned = PIN.read_text().splitlines()
    assert out[0] == pinned[0] + "\tsha256"
    rows = out[1:-4]
    assert len(rows) == 8 and out[-4:] == ["h 1-9     certified 8/8", "h 10-39   certified 0/0",
                                           "h 40-99   certified 0/0", "h >= 100  certified 0/0"]
    for row, want in zip(rows, pinned[1:]):
        D, *_, digest = row.split("\t")
        assert row == want + "\t" + digest
        argv = ["bound", "--d", D, "--s0-count", str(BoundParams().s0_count), "--mazur-bound", "100000"]
        assert cli.main(argv) == 0
        assert digest == sha256(capsys.readouterr().out.encode("ascii")).hexdigest(), D
