"""``scripts/cross_python.py``: two runs of one interpreter write the same
bytes, and a doctored byte is reported with its file, line and column."""
import shutil
import sys

from test_record_bench import load_script

cross_python = load_script("cross_python")

# Two small shapes: a three-party run whose transcript logs relay hops, and
# a tabular report.
SHAPES = ("--parties 3 --pairs 60 --trials 3", "--pairs 40 --trials 2 --format tabular")


def test_one_interpreter_twice_writes_the_same_bytes():
    assert cross_python.compare([sys.executable, sys.executable], SHAPES) == []


def test_a_doctored_byte_is_reported_with_its_file_and_line(tmp_path):
    first, doctored = tmp_path / "first", tmp_path / "doctored"
    assert cross_python.write_all(sys.executable, SHAPES, first) is None
    assert sorted(p.name for p in first.iterdir()) == [
        "0-t.json", "0-t.transcript.jsonl", "0.json", "1-t.csv", "1-t.transcript.jsonl", "1.csv"
    ]
    shutil.copytree(first, doctored)
    assert cross_python.differences(first, doctored) == []
    path = doctored / "0-t.transcript.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[6] = lines[6].replace(b'"trial":0', b'"trial":9')
    path.write_bytes(b"".join(lines))
    (problem,) = cross_python.differences(first, doctored)
    column = lines[6].index(b'"trial":9') + len('"trial":9')
    assert problem.startswith(f"0-t.transcript.jsonl line 7, column {column}: ")
    (doctored / "1.csv").unlink()
    assert cross_python.differences(first, doctored)[-1] == "1.csv: missing"


def test_the_shape_list_is_what_ci_loops_over(capsys):
    assert cross_python.main(["--list"]) == 0
    assert capsys.readouterr().out.splitlines() == list(cross_python.SHAPES)
