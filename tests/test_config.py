"""Config parsing, validation, scenario hashing, and the README's config keys."""

import dataclasses
import re
from pathlib import Path

import pytest

from lbicasim import ConfigError, RunConfig, load_config
from lbicasim.config import _PHASE_KEYS, _RUN_KEYS, parse_config_text
from lbicasim.workload import PhaseSpec, Sequential, UniformRandom

FULL_TEXT = """
# demo scenario
balancer = lbica
seed = 42
interval_ms = 50
theta_dom = 0.8
ssd_read_us = 100
ssd_write_us = 200
hdd_read_us = 4000
hdd_write_us = 6000
cache_blocks = 128

phase1.duration_ms = 300
phase1.rate = 2000
phase1.read_fraction = 0.9
phase1.address = uniform
phase1.working_set = 512
phase1.write_base = 2000
phase1.jitter = 0.5

phase2.duration_ms = 100
phase2.rate = 500
phase2.read_fraction = 0.0
phase2.address = sequential
phase2.start = 1000
phase2.stride = 4
"""


class TestParsing:
    def test_full_config_round_trips_every_key(self):
        config = parse_config_text(FULL_TEXT)
        assert config.balancer == "lbica"
        assert config.seed == 42
        assert config.interval_us == 50_000
        assert config.theta_dom == 0.8
        assert (config.ssd_read_us, config.ssd_write_us) == (100, 200)
        assert (config.hdd_read_us, config.hdd_write_us) == (4000, 6000)
        assert config.cache_blocks == 128
        assert len(config.phases) == 2
        first, second = config.phases
        assert first.duration_us == 300_000
        assert first.arrival_rate == 2000
        assert first.jitter == 0.5
        assert first.write_base == 2000
        assert isinstance(first.address_model, UniformRandom)
        assert isinstance(second.address_model, Sequential)
        assert second.address_model.start == 1000
        assert second.address_model.stride == 4

    def test_defaults_fill_unstated_keys(self):
        config = parse_config_text(
            "cache_blocks = 64\nphase1.duration_ms = 10\nphase1.rate = 100\n"
            "phase1.working_set = 8\n"
        )
        assert config.balancer == "none-wb"
        assert config.seed == 0
        assert config.interval_us == 100_000
        assert config.theta_dom == 0.8
        assert (config.ssd_read_us, config.hdd_read_us) == (100, 5000)

    def test_unknown_key_names_the_line(self):
        with pytest.raises(ConfigError, match=":2"):
            parse_config_text("cache_blocks = 8\nwat = 1\n")

    def test_unknown_phase_key_rejected(self):
        with pytest.raises(ConfigError, match="phase1.elephant"):
            parse_config_text("cache_blocks = 8\nphase1.elephant = 1\n")

    def test_missing_equals_sign_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("cache_blocks\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("cache_blocks = 8\nseed = panda\n")

    def test_cache_blocks_required(self):
        with pytest.raises(ConfigError, match="cache_blocks"):
            parse_config_text("seed = 1\n")

    def test_phase_requires_duration_and_rate(self):
        with pytest.raises(ConfigError, match="phase1.rate"):
            parse_config_text("cache_blocks = 8\nphase1.duration_ms = 10\n")

    def test_uniform_phase_requires_working_set(self):
        with pytest.raises(ConfigError, match="working_set"):
            parse_config_text("cache_blocks = 8\nphase1.duration_ms = 10\nphase1.rate = 100\n")

    def test_unknown_address_model_rejected(self):
        text = (
            "cache_blocks = 8\nphase1.duration_ms = 10\nphase1.rate = 100\n"
            "phase1.address = zigzag\n"
        )
        with pytest.raises(ConfigError, match="zigzag"):
            parse_config_text(text)

    def test_invalid_phase_value_wrapped_as_config_error(self):
        text = (
            "cache_blocks = 8\nphase1.duration_ms = 10\nphase1.rate = 100\n"
            "phase1.working_set = 8\nphase1.read_fraction = 3.0\n"
        )
        with pytest.raises(ConfigError, match="read fraction"):
            parse_config_text(text)

    def test_invalid_address_model_value_wrapped_as_config_error(self):
        text = (
            "cache_blocks = 8\nphase1.duration_ms = 10\nphase1.rate = 100\n"
            "phase1.address = sequential\nphase1.stride = 0\n"
        )
        with pytest.raises(ConfigError, match="phase1: sequential stride"):
            parse_config_text(text)

    def test_repeated_run_key_names_both_lines(self):
        with pytest.raises(ConfigError, match=r"<config>:3: key 'cache_blocks' repeats line 1"):
            parse_config_text("cache_blocks = 4\nseed = 1\ncache_blocks = 8\n")

    def test_repeated_phase_key_names_both_lines(self):
        text = (
            "cache_blocks = 8\nphase1.duration_ms = 10\nphase1.rate = 100\n"
            "phase1.working_set = 8\nphase2.working_set = 8\nphase01.working_set = 16\n"
        )
        repeat = r"<config>:6: key 'phase01.working_set' repeats line 4"
        with pytest.raises(ConfigError, match=repeat):
            parse_config_text(text)

    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_non_finite_phase_rate_rejected(self, rate):
        text = (
            "cache_blocks = 8\nphase1.duration_ms = 10\nphase1.working_set = 8\n"
            f"phase1.rate = {rate}\n"
        )
        with pytest.raises(ConfigError, match="phase1: .* must be positive and finite"):
            parse_config_text(text)

    def test_key_of_the_other_address_model_is_still_parsed(self):
        text = (
            "cache_blocks = 8\nphase1.duration_ms = 10\nphase1.rate = 100\n"
            "phase1.address = sequential\nphase1.base = panda\n"
        )
        with pytest.raises(ConfigError, match="phase1.base: expected int"):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "address, key",
        [
            ("uniform", "start"),
            ("uniform", "stride"),
            ("sequential", "base"),
            ("sequential", "write_base"),
            (None, "stride"),
        ],
    )
    def test_key_of_the_other_address_model_is_rejected_by_name(self, address, key):
        text = (
            "cache_blocks = 8\nphase1.duration_ms = 10\nphase1.rate = 100\n"
            f"phase1.working_set = 8\nphase1.{key} = 7\n"
        )
        if address is not None:
            text += f"phase1.address = {address}\n"
        model = address or "uniform"  # a phase without an address is uniform
        with pytest.raises(
            ConfigError, match=f"phase1.{key}: not a key of the {model} address model"
        ):
            parse_config_text(text)

class TestKeyTables:
    def test_every_run_field_is_set_by_exactly_one_key(self):
        fields = [name for name, _kind, _scale in _RUN_KEYS.values()]
        expected = [f.name for f in dataclasses.fields(RunConfig) if f.name != "phases"]
        assert sorted(fields) == sorted(expected)

    def test_every_phase_field_is_set_by_exactly_one_key(self):
        fields = [name for name, _kind, _scale in _PHASE_KEYS.values()]
        expected = [
            f.name
            for cls in (PhaseSpec, UniformRandom, Sequential)
            for f in dataclasses.fields(cls)
            if f.name != "address_model"
        ]
        assert sorted(fields) == sorted(expected)

    def test_minimal_config_takes_the_dataclass_defaults(self):
        config = parse_config_text(
            "cache_blocks = 64\nphase1.duration_ms = 10\nphase1.rate = 100\n"
            "phase1.working_set = 8\n"
        )
        phase = PhaseSpec(duration_us=10_000, arrival_rate=100.0, working_set_blocks=8)
        assert config == RunConfig(cache_blocks=64, phases=(phase,))

    def test_sequential_phase_defaults_its_model_and_working_set(self):
        config = parse_config_text(
            "cache_blocks = 64\nphase1.duration_ms = 10\nphase1.rate = 100\n"
            "phase1.address = sequential\n"
        )
        phase = PhaseSpec(duration_us=10_000, arrival_rate=100.0, address_model=Sequential())
        assert config.phases == (phase,)


def base_config(**overrides):
    fields = dict(
        cache_blocks=16,
        phases=(
            PhaseSpec(
                duration_us=10_000,
                arrival_rate=100,
                read_fraction=1.0,
                address_model=UniformRandom(),
                working_set_blocks=8,
            ),
        ),
    )
    fields.update(overrides)
    return RunConfig(**fields)


class TestValidation:
    def test_valid_config_has_no_warnings(self):
        assert base_config().validate() == []
        smallest = base_config(cache_blocks=1, interval_us=1, ssd_read_us=1, theta_dom=1.0)
        assert smallest.validate() == []

    def test_unknown_balancer(self):
        with pytest.raises(ConfigError, match="balancer"):
            base_config(balancer="fifo").validate()

    def test_nonpositive_latency(self):
        with pytest.raises(ConfigError, match="hdd_read_us"):
            base_config(hdd_read_us=0).validate()

    def test_theta_dom_range(self):
        with pytest.raises(ConfigError, match="theta_dom"):
            base_config(theta_dom=0.5).validate()

    def test_nonpositive_interval(self):
        with pytest.raises(ConfigError, match="interval"):
            base_config(interval_us=0).validate()

    def test_empty_cache(self):
        with pytest.raises(ConfigError, match="cache_blocks"):
            base_config(cache_blocks=0).validate()

    def test_workload_source_is_exactly_one(self):
        with pytest.raises(ConfigError, match="exactly one"):
            base_config(phases=()).validate()
        with pytest.raises(ConfigError, match="exactly one"):
            base_config(trace_path="t.txt").validate()

    def test_average_latency_is_the_floored_mean(self):
        config = base_config(ssd_read_us=100, ssd_write_us=201, hdd_read_us=4000, hdd_write_us=6001)
        assert (config.ssd_latency_avg, config.hdd_latency_avg) == (150, 5000)

    def test_inverted_tiers_warn_but_pass(self):
        config = base_config(ssd_read_us=500, ssd_write_us=500, hdd_read_us=50, hdd_write_us=25)
        warnings = config.validate()
        assert len(warnings) == 1
        assert "cache tier" in warnings[0]


class TestScenarioHash:
    def test_balancer_choice_does_not_change_the_hash(self):
        a = base_config(balancer="none-wb")
        b = base_config(balancer="lbica")
        assert a.scenario_hash() == b.scenario_hash()
        assert len(a.scenario_hash()) == 16

    def test_seed_changes_the_hash(self):
        assert base_config(seed=1).scenario_hash() != base_config(seed=2).scenario_hash()

    def test_device_latency_changes_the_hash(self):
        assert base_config().scenario_hash() != base_config(ssd_read_us=105).scenario_hash()

    def test_phase_shape_changes_the_hash(self):
        other = dataclasses.replace(
            base_config().phases[0], arrival_rate=200
        )
        assert base_config().scenario_hash() != base_config(phases=(other,)).scenario_hash()


class TestLoadConfig:
    def test_reads_from_disk(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(FULL_TEXT)
        config = load_config(path)
        assert config.cache_blocks == 128

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.cfg")

    def test_trace_path_resolves_relative_to_the_config(self, tmp_path):
        (tmp_path / "t.txt").write_text("0,1,1,R\n")
        path = tmp_path / "run.cfg"
        path.write_text("cache_blocks = 8\ntrace = t.txt\n")
        config = load_config(path)
        assert config.trace_path == str(tmp_path / "t.txt")

    def test_committed_scenarios_parse_and_validate(self):
        from conftest import SCENARIOS

        for name, path in SCENARIOS.items():
            config = load_config(path)
            assert config.phases, name


def readme_config_section():
    """The README's "Configuration format" section, up to the next heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = text.index("## Configuration format")
    return text[start : text.index("\n## ", start)]


class TestReadme:
    def test_the_readme_shows_how_to_set_every_key(self):
        section = readme_config_section()
        keys = [*_RUN_KEYS, *_PHASE_KEYS, "address"]
        # ``key = `` at a line start (commented or not), after a phase
        # prefix or inside inline code
        unshown = [k for k in keys if not re.search(rf"(?:^#? ?|\.|`){k} = ", section, re.M)]
        assert unshown == []

    def test_every_key_line_of_the_readme_example_parses(self):
        example = readme_config_section().split("```ini\n", 1)[1].split("```", 1)[0]
        # a commented-out ``key = value`` line is an optional setting: parse it too
        lines = [re.sub(r"^# (?=[\w.]+ = )", "", line) for line in example.splitlines()]
        assert any(line.startswith("phase1.write_base") for line in lines)
        config = parse_config_text("\n".join(lines), origin="README.md")
        assert config.cache_blocks == 256
        assert [type(phase.address_model) for phase in config.phases] == [UniformRandom, Sequential]
