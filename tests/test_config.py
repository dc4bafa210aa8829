"""Config round-trip, defaults, validation, and digest behavior."""

from __future__ import annotations

import json

import pytest

from sprintlint import ConfigError, MetricConfig, Severity, config_from_dict, load_config
from sprintlint import config as config_mod
from sprintlint.catalog import CHECKS
from sprintlint.config import METRIC_NAMES, HugeStoriesSettings


def test_defaults_cover_all_metrics():
    config = MetricConfig()
    for name in METRIC_NAMES:
        settings = config.for_metric(name)
        assert settings.enabled is True
        assert settings.severity_override is None


def test_round_trip_through_dict():
    config = MetricConfig()
    assert config_from_dict(config.to_dict()) == config


def test_partial_document_gets_defaults():
    config = config_from_dict({"metrics": {"collective-ownership": {"weight": 20}}})
    assert config.for_metric("collective-ownership").weight == 20
    assert config.for_metric("collective-ownership").threshold_e == 10  # untouched default
    assert config.for_metric("huge-stories").weight == 25.0


def test_unknown_metric_rejected():
    with pytest.raises(ConfigError, match="unknown metric"):
        config_from_dict({"metrics": {"made-up": {}}})


def test_unknown_setting_rejected():
    with pytest.raises(ConfigError, match="unknown setting"):
        config_from_dict({"metrics": {"huge-stories": {"wieght": 3}}})


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"metrics": {"collective-ownership": {"threshold_e": 0}}})
    with pytest.raises(ConfigError):
        config_from_dict({"metrics": {"huge-stories": {"weight": -1}}})
    with pytest.raises(ConfigError):
        config_from_dict({"severity_weights": {"high": -2}})
    with pytest.raises(ConfigError):
        config_from_dict({"severity_weights": {"catastrophic": 9}})
    with pytest.raises(ConfigError):
        config_from_dict({"metrics": {"huge-stories": {"enabled": "yes"}}})


def test_severity_override_parsed():
    config = config_from_dict(
        {"metrics": {"duplicate-stories": {"severity_override": "high"}}}
    )
    assert config.for_metric("duplicate-stories").severity_override is Severity.HIGH


def test_severity_weights_must_be_complete():
    with pytest.raises(ConfigError, match="missing"):
        MetricConfig(severity_weights={Severity.HIGH: 8.0})


def test_digest_changes_iff_effective_value_changes():
    base = MetricConfig()
    same = config_from_dict({"metrics": {"huge-stories": {"weight": 25.0}}})  # default restated
    assert base.digest() == same.digest()
    changed = config_from_dict({"metrics": {"huge-stories": {"weight": 26.0}}})
    assert base.digest() != changed.digest()


def test_load_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"metrics": {"last-minute-commits": {"last_minute_window_minutes": 30}}}),
        encoding="utf-8",
    )
    config = load_config(path)
    assert config.for_metric("last-minute-commits").last_minute_window_minutes == 30


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_each_check_is_declared_once_in_report_order():
    assert tuple(config_mod.SETTINGS) == METRIC_NAMES == tuple(CHECKS)


def test_metric_settings_must_name_a_check_and_match_its_class():
    with pytest.raises(ConfigError, match="unknown metric 'nope'"):
        MetricConfig(metrics={"nope": HugeStoriesSettings()})
    with pytest.raises(ConfigError, match="huge-stories must be HugeStoriesSettings"):
        MetricConfig(metrics={"huge-stories": config_mod.TestLaterSettings()})


def test_partial_metrics_mapping_keeps_the_other_defaults():
    override = HugeStoriesSettings(threshold_length=4.0)
    config = MetricConfig(metrics={"huge-stories": override})
    assert tuple(config.metrics) == METRIC_NAMES
    assert config.for_metric("huge-stories") is override
    for name, kind in config_mod.SETTINGS.items():
        if name != "huge-stories":
            assert config.for_metric(name) == kind()
