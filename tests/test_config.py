"""Config round-trip, defaults, validation, and digest behavior."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from sprintlint import ConfigError, MetricConfig, Severity, config_from_dict, load_config
from sprintlint import config as config_mod
from sprintlint.catalog import CHECKS
from sprintlint.config import COMMON_SETTINGS, METRIC_NAMES, SETTINGS
from test_golden import EXPECTED_CONFIG_DIGEST


def test_defaults_cover_all_metrics():
    config = MetricConfig()
    for name in METRIC_NAMES:
        settings = config.for_metric(name)
        assert settings["enabled"] is True
        assert settings["severity_override"] is None


def test_round_trip_through_dict():
    config = MetricConfig()
    assert config_from_dict(config.to_dict()) == config


def test_partial_document_gets_defaults():
    config = config_from_dict({"metrics": {"collective-ownership": {"weight": 20}}})
    assert config.for_metric("collective-ownership")["weight"] == 20
    assert config.for_metric("collective-ownership")["threshold_e"] == 10  # untouched default
    assert config.for_metric("huge-stories")["weight"] == 25.0


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
    assert config.for_metric("duplicate-stories")["severity_override"] is Severity.HIGH


def test_severity_weights_must_be_complete():
    with pytest.raises(ConfigError, match="missing"):
        MetricConfig(severity_weights={Severity.HIGH: 8.0})


def test_digest_changes_iff_effective_value_changes():
    base = MetricConfig()
    same = config_from_dict({"metrics": {"huge-stories": {"weight": 25.0}}})  # default restated
    assert base.digest() == same.digest()
    changed = config_from_dict({"metrics": {"huge-stories": {"weight": 26.0}}})
    assert base.digest() != changed.digest()
    # a default restated as an int for a float setting, and as a float for an int one
    for restated in ({"weight": 10}, {"threshold_e": 10.0}):
        config = config_from_dict({"metrics": {"collective-ownership": restated}})
        assert config.digest() == base.digest(), restated
        assert config.to_dict() == base.to_dict()
    fraction = config_from_dict({"metrics": {"collective-ownership": {"threshold_e": 10.5}}})
    assert fraction.for_metric("collective-ownership")["threshold_e"] == 10.5
    assert fraction.digest() != base.digest()


def test_digest_falls_back_to_hashlib_without_the_built_in_sha256(monkeypatch):
    # a None entry makes the import fail, as on an interpreter built without the module
    monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setitem(sys.modules, "_sha2", None)
    assert MetricConfig().digest() == EXPECTED_CONFIG_DIGEST


def test_load_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"metrics": {"last-minute-commits": {"last_minute_window_minutes": 30}}}),
        encoding="utf-8",
    )
    config = load_config(path)
    assert config.for_metric("last-minute-commits")["last_minute_window_minutes"] == 30


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_each_check_is_declared_once_in_report_order():
    assert tuple(SETTINGS) == METRIC_NAMES == tuple(CHECKS)


def test_metric_settings_must_name_a_check_and_be_an_object():
    for build in (MetricConfig, lambda metrics: config_from_dict({"metrics": metrics})):
        with pytest.raises(ConfigError, match="^unknown metric 'nope' in config$"):
            build({"nope": {}})
        with pytest.raises(ConfigError, match="^settings for huge-stories must be an object$"):
            build({"huge-stories": 4.0})
        with pytest.raises(ConfigError, match="^unknown setting\\(s\\) for huge-stories: wieght$"):
            build({"huge-stories": {"wieght": 3}})
        with pytest.raises(ConfigError, match="^'metrics' must be an object keyed by metric name$"):
            build([])


def test_partial_metrics_mapping_keeps_the_other_defaults():
    config = MetricConfig(metrics={"huge-stories": {"threshold_length": 4.0}})
    assert tuple(config.metrics) == METRIC_NAMES
    huge = COMMON_SETTINGS | SETTINGS["huge-stories"] | {"threshold_length": 4.0}
    assert dict(config.for_metric("huge-stories")) == huge
    assert list(config.for_metric("huge-stories")) == list(huge)
    for name, defaults in SETTINGS.items():
        if name != "huge-stories":
            assert dict(config.for_metric(name)) == COMMON_SETTINGS | defaults


def test_settings_of_a_check_are_read_only():
    config = MetricConfig()
    settings = config.for_metric("huge-stories")
    with pytest.raises(TypeError):
        settings["weight"] = 0.0
    with pytest.raises(TypeError):
        del settings["enabled"]
    assert config.for_metric("huge-stories")["weight"] == 25.0
    assert SETTINGS["huge-stories"]["weight"] == 25.0


NAN, INF = float("nan"), float("inf")
ZERO_ALLOWED = {"weight", "weight_a", "weight_b"}


def _rejected_values(key, default) -> list:
    """A wrong type, NaN, +inf, -inf and (where there is a range) a value below it."""
    if isinstance(default, bool):
        return ["yes", 1, NAN, INF, -INF]
    if isinstance(default, str):
        return [7, NAN, INF, -INF, ""]
    if default is None:  # severity_override
        return [7, "catastrophic", NAN, INF, -INF]
    return ["x", True, NAN, INF, -INF, -1 if key in ZERO_ALLOWED else 0]


def _message(build) -> str:
    with pytest.raises(ConfigError) as caught:
        build()
    return str(caught.value)


def test_a_document_and_a_constructor_reject_each_value_alike():
    zero_accepted = set()
    for name, own in SETTINGS.items():
        for key, default in (COMMON_SETTINGS | own).items():
            for value in _rejected_values(key, default):
                from_document = _message(lambda: config_from_dict({"metrics": {name: {key: value}}}))
                from_code = _message(lambda: MetricConfig(metrics={name: {key: value}}))
                assert from_document == from_code, (name, key, value)
                assert from_document.startswith(f"{name}.{key}"), from_document
            try:
                config_from_dict({"metrics": {name: {key: 0}}})
                MetricConfig(metrics={name: {key: 0}})
                zero_accepted.add(key)
            except ConfigError:
                pass
    assert zero_accepted == ZERO_ALLOWED

    defaults = config_mod.DEFAULT_SEVERITY_WEIGHTS
    for severity in Severity:
        for value in ["x", True, NAN, INF, -INF, -1]:
            from_document = _message(
                lambda: config_from_dict({"severity_weights": {severity.value: value}})
            )
            from_code = _message(lambda: MetricConfig(severity_weights={**defaults, severity: value}))
            assert from_document == from_code, (severity, value)
            assert from_document.startswith(f"severity weight for {severity.value!r}")
        assert MetricConfig(severity_weights={**defaults, severity: 0}).severity_weights[severity] == 0


def test_document_weights_are_stored_as_floats():
    config = config_from_dict({"severity_weights": {"high": 8}})
    assert config == MetricConfig()
    assert config.digest() == MetricConfig().digest()
    assert all(type(w) is float for w in config.severity_weights.values())


def test_unknown_severity_weight_key_rejected_in_code():
    weights = {**config_mod.DEFAULT_SEVERITY_WEIGHTS, "catastrophic": 9.0}
    with pytest.raises(ConfigError, match="unknown severity 'catastrophic'"):
        MetricConfig(severity_weights=weights)


# the digest of the README's example config, its `10` and `120` stored as the floats of their defaults
README_CONFIG_DIGEST = "6ca0a890e97e703d8fdcb24237c3234871511ba96f74c20d7ab6af85afef0cd0"


def _floats(value):
    """`value` with every number in it written as a float."""
    if isinstance(value, dict):
        return {key: _floats(item) for key, item in value.items()}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return value


def test_readme_example_config_keeps_its_digest():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    document = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    assert config_from_dict(document).digest() == README_CONFIG_DIGEST
    assert config_from_dict(_floats(document)).digest() == README_CONFIG_DIGEST


def test_a_constructor_takes_what_a_document_holds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    document = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    assert document["metrics"]["huge-stories"] == {"severity_override": "high"}
    config = MetricConfig(metrics=document["metrics"])
    assert config == config_from_dict(document)
    assert config.digest() == README_CONFIG_DIGEST
    assert config.for_metric("huge-stories")["severity_override"] is Severity.HIGH
