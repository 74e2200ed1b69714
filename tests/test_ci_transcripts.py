"""CI's transcript steps (``.github/workflows/tests.yml``), run in tier-1.

Each shape CI loops over (``scripts/cross_python.py``'s ``SHAPES``) writes
the same report bytes with and without ``--transcript``, its structured
report verifies, and every file it writes re-renders to itself: a report is
``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline, a transcript
line the compact, sorted dump of its event plus a newline. A run with json's
C accelerator blocked (``sys.modules["_json"] = None``) writes the same
report and transcript bytes as an ordinary run.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_record_bench import load_script

from eprqkd.cli import main

ROOT = Path(__file__).resolve().parent.parent
SHAPES = load_script("cross_python").SHAPES


def rerendered_lines(path: Path) -> list[str]:
    """Each transcript line of ``path`` as json re-renders it."""
    return [
        json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) + "\n"
        for line in path.read_text().splitlines()
    ]


@pytest.mark.parametrize("shape", SHAPES)
def test_a_report_is_the_same_bytes_with_and_without_transcripts(shape, tmp_path, capsys):
    ext = "csv" if "tabular" in shape else "json"
    plain, logged = tmp_path / f"s.{ext}", tmp_path / f"s-t.{ext}"
    assert main(["run", *shape.split(), "--out", str(plain)]) == 0
    assert main(["run", *shape.split(), "--out", str(logged), "--transcript"]) == 0
    assert plain.read_bytes() == logged.read_bytes()
    if ext == "json":
        assert main(["verify", str(plain)]) == 0
        document = json.loads(plain.read_bytes())
        assert plain.read_text() == json.dumps(document, sort_keys=True, indent=2) + "\n"
    transcript = logged.with_suffix(".transcript.jsonl")
    lines = transcript.read_text().splitlines(keepends=True)
    assert lines and lines == rerendered_lines(transcript)
    capsys.readouterr()


# Runs cli.main on its arguments, with json's C accelerator blocked when the
# first is "nojson"; exits 3 if the block did not take.
CHILD = (
    "import sys\n"
    "blocked = sys.argv.pop(1) == 'nojson'\n"
    "if blocked:\n"
    "    sys.modules['_json'] = None\n"
    "import json.encoder\n"
    "from eprqkd.cli import main\n"
    "if blocked and json.encoder.c_make_encoder is not None:\n"
    "    sys.exit(3)\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def test_a_run_without_the_json_accelerator_writes_the_same_bytes(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = ["run", "--parties", "3", "--pairs", "200", "--trials", "2", "--transcript"]
    for mode in ("json", "nojson"):
        out = tmp_path / f"{mode}.json"
        subprocess.run(
            [sys.executable, "-c", CHILD, mode, *argv, "--out", str(out)],
            env=env,
            capture_output=True,
            check=True,
        )
    for suffix in (".json", ".transcript.jsonl"):
        ordinary = (tmp_path / "json").with_suffix(suffix).read_bytes()
        assert ordinary and ordinary == (tmp_path / "nojson").with_suffix(suffix).read_bytes()
