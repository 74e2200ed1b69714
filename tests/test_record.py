"""The ``record.Record`` contract, on each of the four records that check
their input, its exact field types, and the weight of importing the command
line."""
import os
import pickle
import re
import subprocess
import sys
import typing
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eprqkd.adversary import AttackKind, AttackStrategy
from eprqkd.analysis import EfficiencyInputs, efficiency
from eprqkd.config import RunConfig
from eprqkd.errors import ConfigurationError
from eprqkd.quantum import BellState
from eprqkd.report import render_structured
from eprqkd.runner import run

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


# Every field each record checks the type of, with a valid value for it:
# (record class, field, its kind, a valid value), and what else a record
# of that class needs.
NEEDS = {
    RunConfig: {},
    AttackStrategy: {},
    EfficiencyInputs: dict.fromkeys(EfficiencyInputs.FIELDS, 1.0),
}
VALID = {"check_fraction_1": 0.5, "check_fraction_2": 0.5, "secret_bits": 2.0}
NUMBER_FIELDS = [
    (cls, name, kind, VALID.get(name, needs.get(name, getattr(cls, name, None))))
    for cls, needs in NEEDS.items()
    for name, kind in cls._KINDS
]


class Int(int):
    pass


class Float(float):
    pass


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(NUMBER_FIELDS), disguise=st.sampled_from(["enum", "int", "float"]))
def test_a_subclass_of_a_field_kind_is_refused_at_construction(field, disguise):
    # An IntEnum member, an int subclass or a float subclass is no exact
    # bool, int or float, and would spell itself otherwise: refused with the
    # type message, before the record's check runs.
    cls, name, kind, valid = field
    number = int(valid) if disguise != "float" else float(valid)
    value = {
        "enum": lambda: IntEnum("Member", {"M": number}).M,
        "int": lambda: Int(number),
        "float": lambda: Float(number),
    }[disguise]()
    with pytest.raises(ConfigurationError) as refused:
        cls(**{**NEEDS[cls], name: value})
    assert str(refused.value) == f"{name} must be {kind.__name__}, got {value!r}"


FLOAT_FIELDS = [(cls, name) for cls, name, kind, _ in NUMBER_FIELDS if kind is float]


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(FLOAT_FIELDS), number=st.integers(0, 3))
def test_an_int_in_a_float_field_is_the_equal_float(field, number):
    # A float field stores an exact int as its float, so the two spellings
    # make equal records that write equal bytes; where the int is out of the
    # field's range, both are refused with one message.
    cls, name = field
    spelt = [{**NEEDS[cls], name: value} for value in (number, float(number))]
    try:
        records = [cls(**fields) for fields in spelt]
    except (ConfigurationError, ValueError) as refused:
        with pytest.raises(type(refused)) as again:
            cls(**spelt[1])
        assert str(again.value) == str(refused)
        with pytest.raises(type(refused), match=re.escape(str(refused))):
            cls(**spelt[0])
        return
    assert records[0] == records[1] and hash(records[0]) == hash(records[1])
    assert type(getattr(records[0], name)) is float and repr(records[0]) == repr(records[1])
    if cls is EfficiencyInputs:
        return
    configs = [r if cls is RunConfig else RunConfig(attack=r) for r in records]
    configs = [c.replace(pairs=40, trials=2, min_check_size=4) for c in configs]
    first, second = (render_structured(run(c)) for c in configs)
    assert first == second


@pytest.mark.parametrize(
    "number",
    [2**53 + 1, -(2**53) - 1, 2**60, 10**400],
    ids=["2**53+1", "-2**53-1", "2**60", "10**400"],
)
@pytest.mark.parametrize(
    "field", FLOAT_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS]
)
def test_an_int_no_float_holds_is_refused_at_construction(field, number):
    # An int beyond 2**53 in magnitude has no exact float: refused with the
    # type message, before the record's check runs, so no record holds an
    # int in a float field (efficiency() of one overflowed).
    cls, name = field
    with pytest.raises(ConfigurationError) as refused:
        cls(**{**NEEDS[cls], name: number})
    assert str(refused.value) == f"{name} must be float, got {number!r}"


@pytest.mark.parametrize("number", [10**5000, -(10**5000)], ids=["10**5000", "-10**5000"])
@pytest.mark.parametrize(
    "field", NUMBER_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name, _, _ in NUMBER_FIELDS]
)
def test_an_int_too_long_to_write_is_refused_by_its_size(field, number):
    # An int of more digits than str() writes (4,300 by default) cannot be
    # spelled in a message: it is refused by its size in bits, before the
    # type check and the record's check run.
    cls, name, _, _ = field
    with pytest.raises(ConfigurationError) as refused:
        cls(**{**NEEDS[cls], name: number})
    assert str(refused.value) == f"{name} is 16610 bits long"


OTHER_FIELDS = [
    (cls, name) for cls in (RunConfig, AttackStrategy) for name in cls.FIELDS
    if name not in dict(cls._KINDS)
]


@pytest.mark.parametrize(
    "value, message",
    [
        (10**5000, "is 16610 bits long"),
        (-(10**5000), "is 16610 bits long"),
        ([10**5000], "cannot be written: Exceeds the limit"),
        ({"kind": (1, 10**5000)}, "cannot be written: Exceeds the limit"),
    ],
    ids=["10**5000", "-10**5000", "in-a-list", "in-a-dict"],
)
@pytest.mark.parametrize(
    "field", OTHER_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in OTHER_FIELDS]
)
def test_a_value_too_long_to_write_is_refused_in_any_field(field, value, message):
    # A field that is no bool, int or float still puts its value in its
    # check's message, so a value repr cannot write is refused before the
    # check runs: an int by its size, a value holding one by the limit.
    cls, name = field
    with pytest.raises(ConfigurationError) as refused:
        cls(**{name: value})
    assert str(refused.value).startswith(f"{name} {message}")


def test_an_int_that_can_be_written_keeps_its_message():
    number = 10**4000
    with pytest.raises(ConfigurationError) as refused:
        RunConfig(seed=number)
    assert str(refused.value) == f"seed must be a 64-bit unsigned integer, got {number}"
    with pytest.raises(ConfigurationError) as refused:
        RunConfig(pairs=-number)
    assert str(refused.value) == f"pairs must be >= 1, got {-number}"


def test_an_int_of_at_most_2_to_53_is_its_float():
    inputs = EfficiencyInputs(2**53, 1, 0)
    assert inputs == EfficiencyInputs(2.0**53, 1.0, 0.0)
    assert efficiency(inputs) == 2.0**53


def test_a_config_seeded_by_a_pair_state_is_refused_before_it_runs():
    with pytest.raises(ConfigurationError, match="seed must be int, got <BellState.PSI2: 1>"):
        RunConfig(seed=BellState.PSI2)
    assert render_structured(run(RunConfig(threshold_1=0, pairs=40))) == render_structured(
        run(RunConfig(threshold_1=0.0, pairs=40))
    )
