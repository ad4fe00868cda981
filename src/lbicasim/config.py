"""Run configuration: flat key-value files, validation, scenario hashing.

Config files hold one ``key = value`` per line with ``#`` comments.
Workload phases use a ``phaseN.`` prefix::

    balancer = lbica
    seed = 7
    interval_ms = 50
    cache_blocks = 256
    phase1.duration_ms = 300
    phase1.rate = 2000
    phase1.read_fraction = 1.0
    phase1.address = uniform
    phase1.working_set = 512

Each key sets one field of :class:`RunConfig`, of a phase's
:class:`PhaseSpec` or of its address model; a key absent from the file
leaves that field at its dataclass default.

The scenario hash covers everything that defines the experiment except
the balancer choice, so runs of different balancers over the same
scenario and seed hash equal and stay comparable.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import MISSING, dataclass
from pathlib import Path

from .balancer import BALANCERS
from .workload import PhaseSpec, Sequential, UniformRandom


class ConfigError(ValueError):
    pass


# Every config key maps to (dataclass field, type, scale): its value is
# parsed as ``type`` and multiplied by ``scale``. A key absent from the
# file leaves its field at the dataclass default.
_RUN_KEYS = {
    "balancer": ("balancer", str, 1),
    "seed": ("seed", int, 1),
    "interval_ms": ("interval_us", int, 1000),
    "theta_dom": ("theta_dom", float, 1),
    "ssd_read_us": ("ssd_read_us", int, 1),
    "ssd_write_us": ("ssd_write_us", int, 1),
    "hdd_read_us": ("hdd_read_us", int, 1),
    "hdd_write_us": ("hdd_write_us", int, 1),
    "cache_blocks": ("cache_blocks", int, 1),
    "trace": ("trace_path", str, 1),
}

# Phase keys set fields of PhaseSpec and of its address model, which
# ``phaseN.address`` names; a key of the other model is an error.
_PHASE_KEYS = {
    "duration_ms": ("duration_us", int, 1000),
    "rate": ("arrival_rate", float, 1),
    "read_fraction": ("read_fraction", float, 1),
    "working_set": ("working_set_blocks", int, 1),
    "jitter": ("jitter", float, 1),
    "write_base": ("write_base", int, 1),
    "base": ("base", int, 1),
    "start": ("start", int, 1),
    "stride": ("stride", int, 1),
}

_ADDRESS_MODELS = {"uniform": UniformRandom, "sequential": Sequential}

_PHASE_RE = re.compile(r"^phase(\d+)\.(\w+)$")


def _latency_avg(read_us: int, write_us: int) -> int:
    return (read_us + write_us) // 2


@dataclass
class RunConfig:
    cache_blocks: int
    balancer: str = "none-wb"
    seed: int = 0
    interval_us: int = 100_000
    theta_dom: float = 0.8
    ssd_read_us: int = 100
    ssd_write_us: int = 100
    hdd_read_us: int = 5000
    hdd_write_us: int = 5000
    phases: tuple[PhaseSpec, ...] = ()
    trace_path: str | None = None

    def validate(self) -> list[str]:
        """Raise :class:`ConfigError` on hard errors; return warnings."""
        if self.balancer not in BALANCERS:
            raise ConfigError(
                f"balancer: unknown value {self.balancer!r}, expected one of {sorted(BALANCERS)}"
            )
        for name in ("ssd_read_us", "ssd_write_us", "hdd_read_us", "hdd_write_us"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: must be a positive number of microseconds")
        if self.cache_blocks < 1:
            raise ConfigError("cache_blocks: must be at least 1")
        if self.interval_us <= 0:
            raise ConfigError("interval_ms: must be positive")
        if not 0.5 < self.theta_dom <= 1.0:
            raise ConfigError("theta_dom: must be in (0.5, 1.0]")
        if bool(self.phases) == bool(self.trace_path):
            raise ConfigError("exactly one of workload phases or trace must be configured")
        warnings = []
        if self.hdd_latency_avg < self.ssd_latency_avg:
            warnings.append(
                "hdd latency is below ssd latency; the balancers assume the cache tier is faster"
            )
        return warnings

    @property
    def ssd_latency_avg(self) -> int:
        """The SSD's queue-time latency term: the mean of its read and write latency."""
        return _latency_avg(self.ssd_read_us, self.ssd_write_us)

    @property
    def hdd_latency_avg(self) -> int:
        """The HDD's queue-time latency term: the mean of its read and write latency."""
        return _latency_avg(self.hdd_read_us, self.hdd_write_us)

    def scenario_hash(self) -> str:
        """Digest of the experiment definition, excluding the balancer."""
        parts = [
            f"seed={self.seed}",
            f"interval_us={self.interval_us}",
            f"theta_dom={self.theta_dom!r}",
            f"ssd={self.ssd_read_us}/{self.ssd_write_us}",
            f"hdd={self.hdd_read_us}/{self.hdd_write_us}",
            f"cache={self.cache_blocks}x4096",  # the block size, once a key: no hash moves
            f"trace={self.trace_path!r}",
        ]
        parts.extend(repr(phase) for phase in self.phases)
        return hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()[:16]


def _parse_values(table: dict, given: dict[str, str], prefix: str = "") -> dict:
    """Parse and scale each given value, keyed by the field its key sets."""
    settings = {}
    for key, value in given.items():
        name, kind, scale = table[key]
        try:
            settings[name] = kind(value) * scale
        except ValueError:
            raise ConfigError(f"{prefix}{key}: expected {kind.__name__}, got {value!r}")
    return settings


def _arguments(cls, table: dict, settings: dict, prefix: str = "") -> dict:
    """The settings that set fields of ``cls``; each field without a default must be set."""
    declared = cls.__dataclass_fields__
    for key, (name, _kind, _scale) in table.items():
        field = declared.get(name)
        if field is None or name in settings:
            continue
        if field.default is MISSING and field.default_factory is MISSING:
            raise ConfigError(f"{prefix}{key}: missing")
    return {name: value for name, value in settings.items() if name in declared}


def _build_phase(index: int, given: dict[str, str]) -> PhaseSpec:
    prefix = f"phase{index}."
    address = given.pop("address", "uniform")
    settings = _parse_values(_PHASE_KEYS, given, prefix)
    arguments = _arguments(PhaseSpec, _PHASE_KEYS, settings, prefix)
    model = _ADDRESS_MODELS.get(address)
    if model is None:
        raise ConfigError(f"{prefix}address: expected uniform or sequential, got {address!r}")
    for key in given:
        name = _PHASE_KEYS[key][0]
        foreign = name not in arguments and name not in model.__dataclass_fields__
        # a separate write region is a PhaseSpec field, but only a uniform phase has one
        if foreign or (key == "write_base" and model is not UniformRandom):
            raise ConfigError(f"{prefix}{key}: not a key of the {address} address model")
    if model is UniformRandom and "working_set" not in given:
        raise ConfigError(f"{prefix}working_set: missing for uniform address model")
    try:
        address_model = model(**_arguments(model, _PHASE_KEYS, settings))
        return PhaseSpec(address_model=address_model, **arguments)
    except ValueError as exc:
        raise ConfigError(f"phase{index}: {exc}")


def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    run_fields: dict[str, str] = {}
    phase_fields: dict[int, dict[str, str]] = {}
    # (phase index or None, key) -> the line that set it
    set_on: dict[tuple[int | None, str], int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        key, value = key.strip(), value.strip()
        match = _PHASE_RE.match(key)
        if match:
            index, name = int(match.group(1)), match.group(2)
            if name != "address" and name not in _PHASE_KEYS:
                raise ConfigError(f"{origin}:{lineno}: unknown phase key {key!r}")
            fields = phase_fields.setdefault(index, {})
        elif key in _RUN_KEYS:
            index, name, fields = None, key, run_fields
        else:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        first = set_on.setdefault((index, name), lineno)
        if first != lineno:
            raise ConfigError(f"{origin}:{lineno}: key {key!r} repeats line {first}")
        fields[name] = value

    arguments = _arguments(RunConfig, _RUN_KEYS, _parse_values(_RUN_KEYS, run_fields))
    phases = tuple(_build_phase(i, phase_fields[i]) for i in sorted(phase_fields))
    config = RunConfig(phases=phases, **arguments)
    config.validate()
    return config


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    config = parse_config_text(text, origin=str(path))
    if config.trace_path is not None:
        # trace paths resolve relative to the config file
        trace = Path(config.trace_path)
        if not trace.is_absolute():
            config.trace_path = str(path.parent / trace)
    return config
