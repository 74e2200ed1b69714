"""Deterministic simulator of a two-step entangled-pair QKD protocol.

Each pair is prepared in one of four maximally entangled states, encoding
two key bits; the two halves travel separately, with an eavesdropping check
after each transmission. The package simulates the honest protocol, the
three analyzed attacks on it, and the information-theoretic metrics used to
compare it against BB84-style schemes.

The top level re-exports what a single run needs; everything else is
imported from its module (``eprqkd.runner.run``, ``eprqkd.analysis``, ...).

Record types follow one rule. A record that checks its input subclasses
``record.Record`` (``RunConfig``, ``AttackStrategy``, ``EfficiencyInputs``):
the type check of its bool, int and float fields, then its ``check``, run on
every construction, ``replace`` included. Any other
record is a named tuple (``CheckReport``, ``PairRecord``,
``ProtocolOutcome``, ``TrialOutcome``, ``RunReport``, ``Bb84Reference``):
one tuple allocation each, with no code generated at import, and each
compares equal to a plain tuple of its fields. A key is no record: it is
the ``bytes`` of its pair codes, one 0-3 per key pair.
"""
from .adversary import AttackKind, AttackStrategy
from .config import RunConfig
from .protocol import run_protocol
from .rng import RandomSource

__version__ = "0.1.0"

__all__ = ["AttackKind", "AttackStrategy", "RandomSource", "RunConfig", "run_protocol"]
