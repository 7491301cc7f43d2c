import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridens.config import COMBINE_RULES, EVAL_LEVELS, RunConfig
from hybridens.errors import ConfigError


def test_defaults_follow_reference_recipe():
    config = RunConfig()
    assert config.learning_rate == 2e-5
    assert config.batch_size == 24
    assert config.dropout_rate == 0.5
    assert config.threshold == 0.5
    assert config.folds == 10
    assert config.input_side == 224
    assert config.K == 3
    assert config.fusion_combine_rule == "mean"
    assert config.meta_ridge == 1.0


@pytest.mark.parametrize(
    "overrides",
    [
        {"K": 1},
        {"learning_rate": 0.0},
        {"batch_size": 0},
        {"dropout_rate": 1.0},
        {"threshold": 0.0},
        {"threshold": 1.0},
        {"folds": 1},
        {"freeze_epochs": -1},
        {"input_side": 0},
        {"fusion_combine_rule": "vote"},
        {"eval_level": "image"},
        {"meta_ridge": -0.5},
        {"meta_ridge": -1e-300},
        {"unfreeze_top": -1},
    ],
)
def test_out_of_range_fields_rejected(overrides):
    with pytest.raises(ConfigError):
        RunConfig(**overrides)


def test_json_round_trip(tmp_path):
    config = RunConfig(seed=9, folds=4, input_side=32)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config.to_dict()))
    assert RunConfig.from_json(path) == config


def test_unknown_fields_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"seed": 1, "warp_factor": 9}')
    with pytest.raises(ConfigError, match="warp_factor"):
        RunConfig.from_json(path)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        RunConfig.from_json(path)
    with pytest.raises(ConfigError, match="cannot read"):
        RunConfig.from_json(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "overrides",
    [
        {"K": "3"},
        {"threshold": "0.5"},
        {"batch_size": float("nan")},
        {"learning_rate": float("inf")},
        {"meta_ridge": -float("inf")},
        {"seed": 1.5},
        {"K": 3.0},
        {"K": True},
        {"dropout_rate": False},
        {"input_side": None},
        {"task_name": 5},
        {"eval_level": ["slice"]},
        {"meta_ridge": 10**400},
        {"meta_ridge": float("nan")},
        {"meta_ridge": "1.0"},
    ],
)
def test_wrongly_typed_fields_rejected(overrides):
    with pytest.raises(ConfigError, match=next(iter(overrides))):
        RunConfig(**overrides)


def test_integer_stands_for_a_float():
    config = RunConfig(meta_ridge=0, learning_rate=1)
    assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


# Values inside every field's range, so that some documents are valid.
_IN_RANGE = {
    "int": st.integers(2, 50),
    "float": st.floats(0.01, 0.99),
    "str": st.sampled_from(COMBINE_RULES + EVAL_LEVELS),
}


@settings(max_examples=300, deadline=None)
@given(doc=st.fixed_dictionaries({}, optional={
    f.name: _IN_RANGE[f.type] | _JSON_VALUES for f in dataclasses.fields(RunConfig)}))
def test_config_json_loads_or_raises_config_error(doc):
    # NaN and the infinities are written as JSON accepts them from Python.
    text = json.dumps(doc)
    try:
        config = RunConfig.from_dict(json.loads(text))
    except ConfigError:
        return
    assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


_VALID_FILE = json.dumps(RunConfig(seed=9, folds=4, input_side=32).to_dict()).encode()


@st.composite
def _damaged_files(draw):
    """A valid config file with up to four bytes overwritten, then cut short."""
    data = bytearray(_VALID_FILE)
    for _ in range(draw(st.integers(0, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data[:draw(st.integers(0, len(data)))])


@settings(max_examples=300, deadline=None)
@given(data=_damaged_files())
@example(data=b'{"seed": 1\xff}')  # once escaped as a bare UnicodeDecodeError
@example(data=b"[" * 100_000)  # once escaped as RecursionError
def test_config_file_bytes_load_or_raise_config_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed_config.json"
    path.write_bytes(data)
    try:
        config = RunConfig.from_json(path)
    except ConfigError:
        return
    assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
