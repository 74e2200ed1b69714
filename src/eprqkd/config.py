"""Run configuration.

A RunConfig fully determines a run: feeding the config echoed in a report
back in, together with its seed, reproduces the run bit-for-bit.
"""
from __future__ import annotations

from .adversary import AttackStrategy
from .errors import ConfigurationError
from .record import Record, require_known_keys
from .rng import MAX_SEED

PARTIES = (2, 3)
ATTACK_HOPS = ("1", "2", "both")
# The most pairs a trial takes. A trial holds about 70 bytes per pair, over
# 2 GB at this bound, until its memory is bounded. Its largest draw, a check
# sample's 8 bits per pair, stays below 2**31 bits, the C int that
# ``getrandbits`` takes its bit count as.
MAX_PAIRS = 2**25 - 1


class RunConfig(Record):
    pairs: int = 1000
    trials: int = 1
    seed: int = 0
    attack: AttackStrategy = AttackStrategy()
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
    # Which hop the adversary sits on: "2" needs a 3-party chain.
    attack_hop: str = "both"  # "1", "2", or "both"
    # Extension, off by default: the first check draws Z or X per pair
    # instead of always Z. The single Z basis already exposes every attack
    # modeled here at one check or the other.
    randomize_check_basis: bool = False

    def check(self):
        if not isinstance(self.attack, AttackStrategy):
            raise ConfigurationError(f"attack must be an AttackStrategy, got {self.attack!r}")
        if self.pairs < 1:
            raise ConfigurationError(f"pairs must be >= 1, got {self.pairs}")
        if self.pairs > MAX_PAIRS:
            raise ConfigurationError(
                f"pairs must be below 2**25 = {MAX_PAIRS + 1}, got {self.pairs}"
            )
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
        if self.parties not in PARTIES:
            raise ConfigurationError(f"parties must be 2 or 3, got {self.parties}")
        if self.min_check_size < 1:
            raise ConfigurationError(f"min_check_size must be >= 1, got {self.min_check_size}")
        if self.attack_hop not in ATTACK_HOPS:
            raise ConfigurationError(f"attack_hop must be '1', '2', or 'both', got {self.attack_hop}")
        if self.attack_hop == "2" and self.parties == 2:
            raise ConfigurationError("attack_hop '2' needs a 3-party chain; 2 parties have one hop")

    def attacks_hop(self, hop: int) -> bool:
        return self.attack_hop == "both" or self.attack_hop == str(hop)

    def to_dict(self) -> dict:
        data = {name: getattr(self, name) for name in self.FIELDS}
        data["attack"] = self.attack.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Parse the ``to_dict`` form; absent keys take their defaults."""
        require_known_keys("config", data, cls)
        known = dict(data)
        return cls(attack=AttackStrategy.from_dict(known.pop("attack", {})), **known)

