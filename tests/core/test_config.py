"""Unit tests for taskloop configurations."""

import pytest

from repro.core.config import StealPolicyMode, TaskloopConfig
from repro.errors import ConfigurationError
from repro.topology.affinity import NodeMask


def mask(*nodes, width=8):
    return NodeMask.from_indices(list(nodes), width)


class TestTaskloopConfig:
    def test_key_is_hashable_triple(self):
        cfg = TaskloopConfig(16, mask(0, 1), StealPolicyMode.STRICT)
        assert cfg.key == (16, 0b11, "strict")
        assert hash(cfg.key)

    def test_describe(self):
        cfg = TaskloopConfig(8, mask(2), StealPolicyMode.FULL)
        text = cfg.describe()
        assert "threads=8" in text and "full" in text

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TaskloopConfig(0, mask(0), StealPolicyMode.STRICT)
        with pytest.raises(ConfigurationError):
            TaskloopConfig(4, NodeMask.empty(8), StealPolicyMode.STRICT)


class TestStealPolicyMode:
    def test_values(self):
        assert StealPolicyMode.STRICT.value == "strict"
        assert StealPolicyMode.FULL.value == "full"

    def test_string_enum(self):
        assert StealPolicyMode("full") is StealPolicyMode.FULL
