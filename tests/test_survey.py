import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "survey_fields.py"


def test_certified_count_per_h_band(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", [str(SCRIPT), "--min", "-60", "--mazur-bound", "1000"])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    header, rows, bands = lines[0], lines[1:-4], lines[-4:]
    assert header.split() == ["D", "h_k", "h", "S", "|union|", "cert", "time", "union"]
    # every fundamental D in [-60, -3] of class number > 1
    assert [int(row.split()[0]) for row in rows] == [
        -15, -20, -23, -24, -31, -35, -39, -40, -47, -51, -52, -55, -56, -59]
    assert bands == ["h 1-9     certified 14/14", "h 10-39   certified 0/0",
                     "h 40-99   certified 0/0", "h >= 100  certified 0/0"]


PIN = Path(__file__).resolve().parent / "data" / "survey_-1000.tsv"


def test_pinned_to_minus_1000(monkeypatch, capsys):
    # every fundamental D in [-1000, -3] of class number > 1 (296 fields,
    # all certified; in a fresh process 30 torus runs and 9 rho runs), byte
    # for byte against the recorded table: the header and rows with the
    # time column dropped and the rest tab-separated, then the band lines as
    # printed
    monkeypatch.setattr("sys.argv", [str(SCRIPT), "--min", "-1000"])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    table = ["\t".join(c for i, c in enumerate(line.split()) if i != 6) for line in lines[:-4]]
    assert "\n".join(table + lines[-4:]) + "\n" == PIN.read_text()
