"""A fuzz of ``eprqkd run``'s argv: whatever the options, the command exits 0
or 2 with no traceback, and every exit 2 prints its error line.

``eprqkd.cli.run`` is replaced by a stub that records the config and returns
one canned report, so no example runs a trial, however many pairs or trials
it asks for.
"""
import contextlib
import io

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from eprqkd.adversary import AttackStrategy
from eprqkd.cli import _CHOICES, _CONFIG_OPTIONS, main
from eprqkd.config import RunConfig
from eprqkd.runner import run

INTS = ("0", "-1", str(2**25), str(2**63), str(10**23))
FLOATS = ("nan", "inf", "-inf", "-0.0", "1e-320", repr(1 - 2**-53))
# Ordinary values, so that some examples make a valid config.
ORDINARY = ("1", "3", "0.5")
# Text that no option parser reads as a flag.
JUNK = st.text(max_size=6).filter(lambda text: not text.startswith("-"))
SWITCHES = {
    name for name, kind in {**RunConfig.TYPES, **AttackStrategy.TYPES}.items() if kind == "bool"
}


@st.composite
def run_argvs(draw):
    argv = ["run"]
    for flag, name, _ in draw(st.lists(st.sampled_from(_CONFIG_OPTIONS), max_size=6)):
        argv.append(flag)
        choices = map(str, _CHOICES.get(name, ()))
        values = st.sampled_from((*INTS, *FLOATS, *ORDINARY, *choices)) | JUNK
        # Now and then an option lacks its value, or a switch is given one.
        if (name in SWITCHES) == (draw(st.integers(0, 9)) > 0):
            continue
        argv.append(draw(values))
    return argv


@pytest.fixture(scope="module")
def canned():
    return run(RunConfig(pairs=20))


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=run_argvs())
# Junk text may hold "\r" or another character that str.splitlines breaks
# on; stderr's lines end only at "\n". It may hold "\n" too, which the error
# message echoes.
@example(argv=["run", "--continuation-mode", "\r0"])
@example(argv=["run", "--continuation-mode", "\n"])
def test_run_argv_exits_0_or_2_with_a_message(monkeypatch, canned, argv):
    configs = []

    def stub(config, collect_transcripts=False):
        configs.append(config)
        return canned._replace(config=config)

    monkeypatch.setattr("eprqkd.cli.run", stub)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = err.getvalue()
    lines = text.removesuffix("\n").split("\n") if text else []
    assert "Traceback" not in text
    if code == 0:
        assert len(configs) == 1 and lines == []
        assert RunConfig.from_dict(configs[0].to_dict()) == configs[0]
    else:
        assert code == 2 and configs == []
        # The error message ends stderr, from the start of the line where
        # it begins; an argument it echoes may break it into more lines.
        start = text.rfind("\n", 0, text.find(": error: ")) + 1
        assert lines and text[start:].startswith(("eprqkd run: error: ", "eprqkd: error: "))
