"""Report serialization: structured JSON, flat CSV, and self-verification.

Both renderings are byte-stable: the same report content always produces
the same bytes, regardless of platform or scheduling. The floats in them are
plain Python arithmetic, and the mutual-information values come from
``math.log2`` in a fixed order (see ``analysis``), so they do not depend on
the SIMD kernels an array library picks for the host CPU. Field names are
fixed by the schema version embedded in every report.
"""
from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from .runner import RunReport, SCHEMA_VERSION, aggregate_rows

TABULAR_COLUMNS = [
    "schema_version",
    "trial",
    "abort_reason",
    "receipt_fraction_1",
    "receipt_fraction_2",
    "check1_sample_size",
    "check1_mismatches",
    "check1_error_rate",
    "check1_passed",
    "check2_sample_size",
    "check2_mismatches",
    "check2_error_rate",
    "check2_passed",
    "key_length",
    "keys_agree",
    "hop2_abort_reason",
    "hop2_check1_sample_size",
    "hop2_check1_mismatches",
    "hop2_check1_error_rate",
    "hop2_check1_passed",
    "hop2_check2_sample_size",
    "hop2_check2_mismatches",
    "hop2_check2_error_rate",
    "hop2_check2_passed",
]


def render_structured(report: RunReport) -> str:
    """One JSON document: config echo, per-trial rows, aggregate block."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _flat_check(prefix: str, check: dict | None, flat: dict):
    for name in ("sample_size", "mismatches", "error_rate", "passed"):
        flat[f"{prefix}_{name}"] = None if check is None else check[name]


def render_tabular(report: RunReport) -> str:
    """One CSV row per trial, with the column set fixed by the schema."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TABULAR_COLUMNS)
    for row in report.rows:
        flat = {
            "schema_version": report.schema_version,
            "trial": row["trial"],
            "abort_reason": row["abort_reason"],
            "receipt_fraction_1": row["receipt_fraction_1"],
            "receipt_fraction_2": row["receipt_fraction_2"],
            "key_length": row["key_length"],
            "keys_agree": row["keys_agree"],
            "hop2_abort_reason": row["hop2"]["abort_reason"] if row["hop2"] else None,
        }
        _flat_check("check1", row["check1"], flat)
        _flat_check("check2", row["check2"], flat)
        hop2 = row["hop2"]
        _flat_check("hop2_check1", hop2["check1"] if hop2 else None, flat)
        _flat_check("hop2_check2", hop2["check2"] if hop2 else None, flat)
        writer.writerow([_cell(flat[column]) for column in TABULAR_COLUMNS])
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
    path.write_text("".join(report.transcripts))
    return path


def _has_non_finite(block: dict) -> bool:
    """Whether a dict of numbers, None and nested such dicts (an aggregate
    block) holds a NaN or an infinity."""
    for value in block.values():
        if isinstance(value, dict):
            if _has_non_finite(value):
                return True
        elif isinstance(value, float) and not math.isfinite(value):
            return True
    return False


def verify_report(document: dict) -> list[str]:
    """Recompute the aggregate block from the trial rows and diff it.

    Returns a list of human-readable discrepancies; an empty list means the
    embedded aggregate matches its own rows exactly. Raises ValueError
    ("malformed report: ...") when the document is not shaped like a report.
    """
    if not isinstance(document, dict):
        kind = type(document).__name__
        raise ValueError(f"malformed report: top level is a {kind}, not an object")
    problems = []
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        problems.append(f"schema_version: expected {SCHEMA_VERSION!r}, found {version!r}")
    rows = document.get("trials")
    if not isinstance(rows, list) or not rows:
        return problems + ["trials: missing or empty"]
    embedded = document.get("aggregate") or {}
    if not isinstance(embedded, dict):
        kind = type(embedded).__name__
        raise ValueError(f"malformed report: aggregate is a {kind}, not an object")
    try:
        recomputed = aggregate_rows(rows)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        raise ValueError(f"malformed report: rows do not fit {SCHEMA_VERSION} ({reason})") from None
    # A NaN or an infinity in a row would print as a MISMATCH (NaN never
    # equals itself). Every row number the aggregate reads reaches one of its
    # sums, which keep it non-finite, so checking the small recomputed block
    # finds it without walking every row.
    if _has_non_finite(recomputed):
        raise ValueError("malformed report: the rows hold a non-finite number")
    for key in sorted(set(embedded) | set(recomputed)):
        if embedded.get(key) != recomputed.get(key):
            problems.append(
                f"aggregate.{key}: stored {embedded.get(key)!r}, "
                f"recomputed {recomputed.get(key)!r}"
            )
    return problems
