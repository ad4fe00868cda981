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

The scenario hash covers everything that defines the experiment except
the balancer choice, so runs of different balancers over the same
scenario and seed hash equal and stay comparable.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

from .balancer import BALANCERS
from .workload import PhaseSpec, Sequential, UniformRandom


class ConfigError(ValueError):
    pass


_RUN_KEYS = {
    "balancer",
    "seed",
    "interval_ms",
    "theta_dom",
    "ssd_read_us",
    "ssd_write_us",
    "hdd_read_us",
    "hdd_write_us",
    "cache_blocks",
    "block_bytes",
    "trace",
}

_PHASE_KEYS = {
    "duration_ms",
    "rate",
    "read_fraction",
    "address",
    "working_set",
    "base",
    "start",
    "stride",
    "jitter",
    "write_base",
}

_PHASE_RE = re.compile(r"^phase(\d+)\.(\w+)$")


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
    block_bytes: int = 4096
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
        if self.block_bytes < 1:
            raise ConfigError("block_bytes: must be positive")
        if self.interval_us <= 0:
            raise ConfigError("interval_ms: must be positive")
        if not 0.5 < self.theta_dom <= 1.0:
            raise ConfigError("theta_dom: must be in (0.5, 1.0]")
        if bool(self.phases) == bool(self.trace_path):
            raise ConfigError("exactly one of workload phases or trace must be configured")
        warnings = []
        ssd_avg = (self.ssd_read_us + self.ssd_write_us) // 2
        hdd_avg = (self.hdd_read_us + self.hdd_write_us) // 2
        if hdd_avg < ssd_avg:
            warnings.append(
                "hdd latency is below ssd latency; the balancers assume the cache tier is faster"
            )
        return warnings

    def scenario_hash(self) -> str:
        """Digest of the experiment definition, excluding the balancer."""
        parts = [
            f"seed={self.seed}",
            f"interval_us={self.interval_us}",
            f"theta_dom={self.theta_dom!r}",
            f"ssd={self.ssd_read_us}/{self.ssd_write_us}",
            f"hdd={self.hdd_read_us}/{self.hdd_write_us}",
            f"cache={self.cache_blocks}x{self.block_bytes}",
            f"trace={self.trace_path!r}",
        ]
        parts.extend(repr(phase) for phase in self.phases)
        return hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()[:16]


def _convert(kind, key: str, value: str):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")


def _build_phase(index: int, fields: dict[str, str]) -> PhaseSpec:
    prefix = f"phase{index}"
    for required in ("duration_ms", "rate"):
        if required not in fields:
            raise ConfigError(f"{prefix}.{required}: missing")
    address = fields.get("address", "uniform")
    if address == "uniform":
        if "working_set" not in fields:
            raise ConfigError(f"{prefix}.working_set: missing for uniform address model")
        model = UniformRandom(base=_convert(int, f"{prefix}.base", fields.get("base", "0")))
    elif address == "sequential":
        model = Sequential(
            start=_convert(int, f"{prefix}.start", fields.get("start", "0")),
            stride=_convert(int, f"{prefix}.stride", fields.get("stride", "1")),
        )
    else:
        raise ConfigError(f"{prefix}.address: expected uniform or sequential, got {address!r}")
    try:
        return PhaseSpec(
            duration_us=_convert(int, f"{prefix}.duration_ms", fields["duration_ms"]) * 1000,
            arrival_rate=_convert(float, f"{prefix}.rate", fields["rate"]),
            read_fraction=_convert(
                float, f"{prefix}.read_fraction", fields.get("read_fraction", "1.0")
            ),
            address_model=model,
            working_set_blocks=_convert(
                int, f"{prefix}.working_set", fields.get("working_set", "1")
            ),
            jitter=_convert(float, f"{prefix}.jitter", fields.get("jitter", "0.0")),
            write_base=(
                _convert(int, f"{prefix}.write_base", fields["write_base"])
                if "write_base" in fields
                else None
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}")


def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    run_fields: dict[str, str] = {}
    phase_fields: dict[int, dict[str, str]] = {}
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
            index, phase_key = int(match.group(1)), match.group(2)
            if phase_key not in _PHASE_KEYS:
                raise ConfigError(f"{origin}:{lineno}: unknown phase key {key!r}")
            phase_fields.setdefault(index, {})[phase_key] = value
        elif key in _RUN_KEYS:
            run_fields[key] = value
        else:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")

    if "cache_blocks" not in run_fields:
        raise ConfigError("cache_blocks: missing")
    phases = tuple(_build_phase(i, phase_fields[i]) for i in sorted(phase_fields))
    config = RunConfig(
        cache_blocks=_convert(int, "cache_blocks", run_fields["cache_blocks"]),
        balancer=run_fields.get("balancer", "none-wb"),
        seed=_convert(int, "seed", run_fields.get("seed", "0")),
        interval_us=_convert(int, "interval_ms", run_fields.get("interval_ms", "100")) * 1000,
        theta_dom=_convert(float, "theta_dom", run_fields.get("theta_dom", "0.8")),
        ssd_read_us=_convert(int, "ssd_read_us", run_fields.get("ssd_read_us", "100")),
        ssd_write_us=_convert(int, "ssd_write_us", run_fields.get("ssd_write_us", "100")),
        hdd_read_us=_convert(int, "hdd_read_us", run_fields.get("hdd_read_us", "5000")),
        hdd_write_us=_convert(int, "hdd_write_us", run_fields.get("hdd_write_us", "5000")),
        block_bytes=_convert(int, "block_bytes", run_fields.get("block_bytes", "4096")),
        phases=phases,
        trace_path=run_fields.get("trace"),
    )
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
