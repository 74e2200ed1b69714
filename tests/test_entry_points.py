"""Smoke tests of the documented entry points: the README's library snippet,
the experiment scripts, and the package's top-level exports."""
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import eprqkd

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_snippet_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("check1_failed 0.")


def test_reference_metrics_script(capsys):
    runpy.run_path(str(ROOT / "scripts" / "reference_metrics.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "two-step pairs" in out and "100%" in out
    assert "I(A:E) = 0.188722 bits" in out


def test_attack_comparison_script(capsys, monkeypatch):
    argv = ["attack_comparison.py", "--pairs", "200", "--trials", "2"]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(ROOT / "scripts" / "attack_comparison.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2 trials x 200 pairs, seed 7"
    attacks = [line.split()[0] for line in lines[3:]]
    assert attacks == ["none", "measure-resend", "fake-epr", "opaque"]


def test_every_exported_name_resolves():
    assert eprqkd.__all__
    for name in eprqkd.__all__:
        assert getattr(eprqkd, name) is not None, name


def _src_env():
    """The environment with the package source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_cli_import_loads_only_the_stdlib():
    env = _src_env()
    probe = (
        "import sys; before = set(sys.modules); import eprqkd.cli; "
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'eprqkd'}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_cli_module_runs_as_a_script(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "eprqkd.cli", "run", "--pairs", "20", "--trials", "1"],
        env=_src_env(),
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("eprqkd: 1 trial(s) x 20 pairs")
