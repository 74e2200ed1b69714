"""The ``record.Record`` contract, on each of the four records that check
their input, and the weight of importing the command line."""
import os
import pickle
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from eprqkd.adversary import AttackKind, AttackStrategy
from eprqkd.analysis import EfficiencyInputs
from eprqkd.config import RunConfig
from eprqkd.errors import ConfigurationError
from eprqkd.quantum import BellState

SRC = Path(__file__).resolve().parent.parent / "src"

# (a valid record, a change its check rejects, the error that check raises)
RECORDS = [
    (RunConfig(pairs=64, parties=3), {"pairs": 0}, ConfigurationError),
    (
        AttackStrategy(AttackKind.FAKE_EPR, BellState.PSI3, 0.0, False),
        {"destroy_probability": 1.5},
        ConfigurationError,
    ),
    (EfficiencyInputs(1, 1, 3), {"secret_bits": -1}, ValueError),
]


@pytest.mark.parametrize(
    "record, bad, error", RECORDS, ids=[type(record).__name__ for record, _, _ in RECORDS]
)
def test_a_record_is_checked_read_only_and_compared_by_its_fields(record, bad, error):
    cls = type(record)
    values = [getattr(record, name) for name in cls.FIELDS]
    assert list(cls.FIELDS) == list(typing.get_type_hints(cls))

    name = cls.FIELDS[0]
    with pytest.raises(AttributeError):
        setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == values[0]

    # replace builds a new record through its check, as construction does.
    with pytest.raises(error):
        record.replace(**bad)
    assert record.replace() == record and record.replace() is not record

    with pytest.raises(TypeError):
        cls(*values, bogus=1)  # an unknown field
    with pytest.raises(TypeError):
        cls(*values, **{name: values[0]})  # a repeated field
    with pytest.raises(TypeError):
        cls(*values, values[0])  # more values than fields
    if not hasattr(cls, cls.FIELDS[-1]):
        with pytest.raises(TypeError):
            cls(*values[:-1])  # a missing field, which has no default

    again = cls(**dict(zip(cls.FIELDS, values)))
    assert again == record and hash(again) == hash(record)
    assert repr(again) == repr(record)
    assert record != tuple(values)
    for other, _, _ in RECORDS:
        assert (other == record) is (other is record)
    assert pickle.loads(pickle.dumps(record)) == record


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter: the modules that importing eprqkd.cli adds.
    code = (
        "import sys; before = set(sys.modules); import eprqkd.cli; print(*set(sys.modules) - before)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    loaded = set(done.stdout.split())
    assert "eprqkd.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
