"""Run configuration.

A RunConfig fully determines a run: feeding the config echoed in a report
back in, together with its seed, reproduces the run bit-for-bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

from .adversary import AttackStrategy
from .errors import ConfigurationError, require_type
from .rng import MAX_SEED


@dataclass(frozen=True)
class RunConfig:
    pairs: int = 1000
    trials: int = 1
    seed: int = 0
    attack: AttackStrategy = field(default_factory=AttackStrategy)
    check_fraction_1: float = 0.25
    check_fraction_2: float = 0.25
    threshold_1: float = 0.02
    threshold_2: float = 0.02
    loss_tolerance: float = 0.0
    parties: int = 2
    continuation_mode: bool = False
    # Checks sample at least this many pairs regardless of the fraction
    # (when that many are available); 16 bounds the miss probability of the
    # fake-EPR attack at 2^-16 per run.
    min_check_size: int = 16
    # Which hop the adversary sits on in a 3-party chain.
    attack_hop: str = "both"  # "1", "2", or "both"
    # Extension, off by default: the first check draws Z or X per pair
    # instead of always Z. The single Z basis already exposes every attack
    # modeled here at one check or the other.
    randomize_check_basis: bool = False

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            require_type(name, getattr(self, name), kind)
        if self.pairs < 1:
            raise ConfigurationError(f"pairs must be >= 1, got {self.pairs}")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        for name in ("check_fraction_1", "check_fraction_2"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1), got {value}")
        for name in ("threshold_1", "threshold_2", "loss_tolerance"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.parties not in (2, 3):
            raise ConfigurationError(f"parties must be 2 or 3, got {self.parties}")
        if self.min_check_size < 1:
            raise ConfigurationError(f"min_check_size must be >= 1, got {self.min_check_size}")
        if self.attack_hop not in ("1", "2", "both"):
            raise ConfigurationError(f"attack_hop must be '1', '2', or 'both', got {self.attack_hop}")

    def attacks_hop(self, hop: int) -> bool:
        return self.attack_hop == "both" or self.attack_hop == str(hop)

    def to_dict(self) -> dict:
        return {
            "pairs": self.pairs,
            "trials": self.trials,
            "seed": self.seed,
            "attack": self.attack.to_dict(),
            "check_fraction_1": self.check_fraction_1,
            "check_fraction_2": self.check_fraction_2,
            "threshold_1": self.threshold_1,
            "threshold_2": self.threshold_2,
            "loss_tolerance": self.loss_tolerance,
            "parties": self.parties,
            "continuation_mode": self.continuation_mode,
            "min_check_size": self.min_check_size,
            "attack_hop": self.attack_hop,
            "randomize_check_basis": self.randomize_check_basis,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Parse the ``to_dict`` form; absent keys take their defaults."""
        if not isinstance(data, dict):
            raise ConfigurationError(f"config must be a mapping, got {data!r}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown config key {unknown[0]!r}")
        known = dict(data)
        return cls(attack=AttackStrategy.from_dict(known.pop("attack", {})), **known)


_FIELD_TYPES = {
    **dict.fromkeys(("pairs", "trials", "seed", "parties", "min_check_size"), int),
    **dict.fromkeys(
        ("check_fraction_1", "check_fraction_2", "threshold_1", "threshold_2", "loss_tolerance"),
        float,
    ),
    **dict.fromkeys(("continuation_mode", "randomize_check_basis"), bool),
}
