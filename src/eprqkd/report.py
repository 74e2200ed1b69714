"""Report serialization: structured JSON, flat CSV, and self-verification.

Both renderings are byte-stable: the same report content always produces
the same bytes, however trials are scheduled. The floats in them are plain
Python arithmetic, the same on every platform, except the two
mutual-information values: they come from ``math.log2`` in a fixed order
(see ``analysis``), so they do not depend on the SIMD kernels an array
library picks for the host CPU, but ``math.log2`` is the platform libm's,
and a libm that rounds a logarithm differently changes their last bit.

A structured report is ``json.dumps(report.to_dict(), sort_keys=True,
indent=2)`` plus a newline, byte for byte. ``json.dumps`` leaves its C
encoder for a pure-Python generator chain whenever it indents, so
``render_structured`` renders the document itself: a small recursive
renderer that joins scalars encoded at C level (``json``'s own string
quoting, ``int.__repr__``, and ``float.__repr__`` with json's spellings of
NaN and the infinities) into json's indented layout.

Field names are fixed by the schema version embedded in every report. Each
CSV column after the schema version is a path into a trial row, such as
``("hop2", "check1", "sample_size")`` for the column
``hop2_check1_sample_size``; a cell is empty where a hop or a check on its
path did not run.
"""
from __future__ import annotations

import csv
import io
import math
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .runner import RunReport, SCHEMA_VERSION, aggregate_rows

# A hop's two check blocks flatten to four cells each.
_CHECK_PATHS = tuple(
    (check, name)
    for check in ("check1", "check2")
    for name in ("sample_size", "mismatches", "error_rate", "passed")
)
# The CSV columns after ``schema_version``, as paths into a trial row.
_ROW_PATHS = (
    ("trial",),
    ("abort_reason",),
    ("receipt_fraction_1",),
    ("receipt_fraction_2",),
    *_CHECK_PATHS,
    ("key_length",),
    ("keys_agree",),
    ("hop2", "abort_reason"),
    *(("hop2", *path) for path in _CHECK_PATHS),
)
TABULAR_COLUMNS = ["schema_version", *("_".join(path) for path in _ROW_PATHS)]


def _float(value: float) -> str:
    """A float as json writes it, NaN and the infinities included."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


# How json writes a scalar of each exact type.
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    float: _float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _render(value, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, for a value nested
    under ``indent``; the keys of every dict must be strings, as a report's
    are. A subclass of a JSON type (an ``IntEnum``, say) renders as its
    base does, and any other value raises TypeError, as in ``json``."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [_quote(key) + ": " + _render(value[key], inner) for key in sorted(value)]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_render(item, inner) for item in value]
        brackets = "[]"
    else:
        for base in (str, int, float):
            if isinstance(value, base):
                return _SCALARS[base](value)
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


def render_structured(report: RunReport) -> str:
    """One JSON document: config echo, per-trial rows, aggregate block."""
    return _render(report.to_dict()) + "\n"


def _cell(row: dict, path: tuple) -> str:
    """The CSV text of the value at ``path`` in ``row``; empty where a hop or
    a check on the path did not run."""
    value = row
    for key in path:
        if value is None:
            break
        value = value[key]
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def render_tabular(report: RunReport) -> str:
    """One CSV row per trial, with the column set fixed by the schema."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TABULAR_COLUMNS)
    for row in report.rows:
        writer.writerow([SCHEMA_VERSION, *(_cell(row, path) for path in _ROW_PATHS)])
    return buffer.getvalue()


def emit_report(report: RunReport, path: str | Path, fmt: str = "structured") -> Path:
    """Write the report to disk in the requested format."""
    if fmt == "structured":
        text = render_structured(report)
    elif fmt == "tabular":
        text = render_tabular(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    path = Path(path)
    path.write_text(text)
    return path


def emit_transcripts(report: RunReport, path: str | Path) -> Path:
    if report.transcripts is None:
        raise ValueError("this report was produced without transcripts")
    path = Path(path)
    with path.open("w") as handle:
        handle.writelines(report.transcripts)
    return path


class _Missing:
    """The value of a key one aggregate lacks: equal only to itself."""

    def __repr__(self) -> str:
        return "<missing>"


_MISSING = _Missing()


def verify_report(document: dict) -> list[str]:
    """Recompute the aggregate block from the trial rows and diff it, and
    check that the echoed config ran as many trials as there are rows.

    Returns a list of human-readable discrepancies; an empty list means the
    embedded aggregate matches its own rows exactly and the config's trial
    count is the number of rows. The two aggregates are compared in one
    ``==``; only when they differ are they compared key by key, one
    ``aggregate.<key>`` line per differing key in sorted key order (a key
    one side lacks reads as ``<missing>``, which differs from every value,
    None too). Raises ValueError ("malformed report: ...") when the document
    is not shaped like a report, which includes a row number the aggregate
    reads that is not of its exact type and range (``aggregate_rows``): a
    ``true`` or a ``20.0`` where a row holds a count, a NaN or an infinity.
    """
    if not isinstance(document, dict):
        kind = type(document).__name__
        raise ValueError(f"malformed report: top level is a {kind}, not an object")
    for key, shape, noun in (
        ("config", dict, "an object"), ("trials", list, "a list"), ("aggregate", dict, "an object")
    ):
        if key in document and not isinstance(document[key], shape):
            kind = type(document[key]).__name__
            raise ValueError(f"malformed report: {key} is a {kind}, not {noun}")
    problems = []
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        problems.append(f"schema_version: expected {SCHEMA_VERSION!r}, found {version!r}")
    rows = document.get("trials")
    if not rows:
        return problems + ["trials: missing or empty"]
    trials = document.get("config", {}).get("trials")
    if type(trials) is not int or trials != len(rows):
        problems.append(f"config.trials: stored {trials!r}, counted {len(rows)}")
    embedded = document.get("aggregate", {})
    try:
        recomputed = aggregate_rows(rows)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        raise ValueError(f"malformed report: rows do not fit {SCHEMA_VERSION} ({reason})") from None
    if embedded == recomputed:
        return problems
    for key in sorted(set(embedded) | set(recomputed)):
        stored, expected = embedded.get(key, _MISSING), recomputed.get(key, _MISSING)
        if stored != expected:
            problems.append(f"aggregate.{key}: stored {stored!r}, recomputed {expected!r}")
    return problems
