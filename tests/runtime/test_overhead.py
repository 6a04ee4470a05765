"""Unit tests for the overhead cost model and ledger."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime.overhead import COMPONENTS, OverheadLedger, OverheadParams


class TestParams:
    def test_defaults_positive(self):
        p = OverheadParams()
        assert p.steal_remote > p.steal_local > p.dequeue

    def test_barrier_grows_with_threads(self):
        p = OverheadParams()
        assert p.barrier_cost(64) > p.barrier_cost(8) > 0

    def test_barrier_validation(self):
        with pytest.raises(ConfigurationError):
            OverheadParams().barrier_cost(0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            OverheadParams(dequeue=-1.0)

    def test_frozen(self):
        p = OverheadParams()
        with pytest.raises(AttributeError):
            p.dequeue = 1.0


class TestLedger:
    def test_charge_and_total(self):
        led = OverheadLedger()
        led.charge("dequeue", 1e-6)
        led.charge("steal_remote", 5e-6)
        led.charge("barrier", 2e-6)
        assert led.total == pytest.approx(8e-6)
        assert led.counts == {"dequeue": 1, "steal_remote": 1, "barrier": 1}

    def test_charge_counts(self):
        led = OverheadLedger()
        led.charge("steal_fail", 3e-7, count=3)
        assert led.counts["steal_fail"] == 3

    def test_unknown_component(self):
        with pytest.raises(ConfigurationError):
            OverheadLedger().charge("bribes", 1.0)

    @pytest.mark.parametrize("name", ["counts", "total"])
    def test_ledger_attribute_is_not_a_component(self, name):
        """``counts`` and ``total`` are ledger attributes, not components:
        charging them is a configuration error like any unknown name."""
        led = OverheadLedger()
        with pytest.raises(ConfigurationError):
            led.charge(name, 1.0)
        assert led.counts == {}
        assert led.total == 0.0

    def test_total_adds_every_component(self):
        led = OverheadLedger()
        for i, name in enumerate(COMPONENTS):
            led.charge(name, (i + 1) * 1e-6)
        assert led.total == pytest.approx(sum(range(1, len(COMPONENTS) + 1)) * 1e-6)
        assert led.counts == {name: 1 for name in COMPONENTS}

    def test_empty_total_zero(self):
        assert OverheadLedger().total == 0.0
