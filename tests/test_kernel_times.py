"""``scripts/kernel_times.py`` at tiny sizes: the shape of what it prints,
with no timing asserted, and its ``render`` row at its fixed hop size."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ["gather", "joint_counts", "measure_column", "quarters_of", "sample_mask"]


def test_kernel_times_print_both_medians_of_each_kernel_at_each_size(tmp_path):
    script = ROOT / "scripts" / "kernel_times.py"
    done = subprocess.run(
        [sys.executable, str(script), "--sizes", "1,9", "--calls", "3"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
    )
    header, *lines = done.stdout.splitlines()
    assert header.split() == ["kernel", "bytes", "fresh_us", "repeated_us"]
    rows = [line.split() for line in lines]
    assert [row[:2] for row in rows] == [
        *([kernel, size] for kernel in KERNELS for size in ("1", "9")),
        ["render", "256"],
    ]
    for row in rows:
        assert len(row) == 4 and all(float(value) >= 0 for value in row[2:])
    assert done.stderr == ""
