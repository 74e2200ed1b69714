"""A golden digest of the random streams.

Every other determinism test compares two runs of the same code. This one
compares against a constant, so a change that alters any draw, transcript
event or report row fails here and has to update the constant on purpose.
Only transcripts and trial rows are hashed: the aggregate's mutual
information goes through ``log2`` and may differ in the last bit between
platforms.

``TABULAR_SHA256`` pins the CSV rendering of the same configs' reports.
"""
import hashlib
import json

from eprqkd.adversary import AttackKind, AttackStrategy
from eprqkd.config import RunConfig
from eprqkd.report import render_tabular
from eprqkd.runner import run

GOLDEN_SHA256 = "d988a142cac6e367f8cbd4a48110592dcacc5b3a87291d77a65709b85a6c3cdd"
TABULAR_SHA256 = "02179c0d53bde0b74fe6df546c50144413804634d6e65749f3bbcc8359990c4a"

ATTACKS = [
    AttackStrategy(),
    AttackStrategy(kind=AttackKind.MEASURE_RESEND),
    AttackStrategy(kind=AttackKind.MEASURE_RESEND, measure_second_sequence=True),
    AttackStrategy(kind=AttackKind.FAKE_EPR),
    AttackStrategy(kind=AttackKind.FAKE_EPR, fake_label=None),
    AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=0.3),
]


def golden_configs():
    for attack in ATTACKS:
        for parties in (2, 3):
            yield RunConfig(
                pairs=64,
                trials=2,
                seed=11,
                attack=attack,
                parties=parties,
                min_check_size=4,
                loss_tolerance=0.5,
            )
    yield RunConfig(
        pairs=64,
        trials=2,
        seed=12,
        attack=AttackStrategy(kind=AttackKind.MEASURE_RESEND),
        randomize_check_basis=True,
        continuation_mode=True,
    )


def corpus_digest() -> str:
    digest = hashlib.sha256()
    for config in golden_configs():
        report = run(config, collect_transcripts=True)
        digest.update("".join(report.transcripts).encode())
        digest.update(json.dumps(report.rows, sort_keys=True).encode())
    return digest.hexdigest()


def test_golden_digest_pins_every_draw():
    assert corpus_digest() == GOLDEN_SHA256


def test_tabular_digest_pins_every_csv_byte():
    digest = hashlib.sha256()
    for config in golden_configs():
        digest.update(render_tabular(run(config)).encode())
    assert digest.hexdigest() == TABULAR_SHA256
