"""Tests for metering, invoicing and settlement netting (§III.F)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.federation.accounting import AccountingLedger, MeterRecord


def record(provider="site-a", consumer="org-x", hours=10.0, price=2.0, **kwargs):
    return MeterRecord(
        job_name="job",
        consumer=consumer,
        provider=provider,
        device_name="hpc-gpu",
        device_hours=hours,
        price_per_device_hour=price,
        **kwargs,
    )


class TestMeterRecord:
    def test_compute_charge(self):
        assert record(hours=10, price=2.0).compute_charge == 20.0

    def test_energy_charge_per_kwh(self):
        metered = record(energy_joules=7.2e6, energy_price_per_kwh=0.1)
        assert metered.energy_charge == pytest.approx(0.2)

    def test_egress_charge(self):
        metered = record(egress_bytes=50e9, egress_price_per_gb=0.08)
        assert metered.egress_charge == pytest.approx(4.0)

    def test_total_sums_components(self):
        metered = record(
            hours=10, price=2.0,
            energy_joules=3.6e6, energy_price_per_kwh=0.1,
            egress_bytes=10e9, egress_price_per_gb=0.08,
        )
        assert metered.total_charge == pytest.approx(20.0 + 0.1 + 0.8)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            record(hours=-1.0)


class TestLedgerAggregation:
    def test_provider_revenue_and_consumer_spend(self):
        ledger = AccountingLedger()
        ledger.meter(record(provider="a", consumer="x", hours=10, price=1.0))
        ledger.meter(record(provider="a", consumer="y", hours=5, price=2.0))
        ledger.meter(record(provider="b", consumer="x", hours=3, price=1.0))
        assert ledger.provider_revenue("a") == 20.0
        assert ledger.consumer_spend("x") == 13.0
        assert len(ledger) == 3


class TestSettlement:
    def test_balances_sum_to_zero(self):
        ledger = AccountingLedger()
        ledger.meter(record(provider="a", consumer="b", hours=10, price=1.0))
        ledger.meter(record(provider="b", consumer="c", hours=4, price=1.0))
        balances = ledger.net_balances()
        assert sum(balances.values()) == pytest.approx(0.0)

    def test_bilateral_netting(self):
        """Mutual provision nets down: a<->b trade 10 vs 8 settles as 2."""
        ledger = AccountingLedger()
        ledger.meter(record(provider="a", consumer="b", hours=10, price=1.0))
        ledger.meter(record(provider="b", consumer="a", hours=8, price=1.0))
        transfers = ledger.settlement_transfers()
        assert transfers == [("b", "a", pytest.approx(2.0))]
        assert ledger.netting_efficiency() == pytest.approx(1.0 - 2.0 / 18.0)

    def test_transfers_settle_all_balances(self):
        ledger = AccountingLedger()
        ledger.meter(record(provider="a", consumer="b", hours=7, price=1.0))
        ledger.meter(record(provider="b", consumer="c", hours=5, price=1.0))
        ledger.meter(record(provider="c", consumer="a", hours=3, price=1.0))
        balances = ledger.net_balances()
        settled = dict(balances)
        for debtor, creditor, amount in ledger.settlement_transfers():
            settled[debtor] += amount
            settled[creditor] -= amount
        assert all(abs(v) < 1e-9 for v in settled.values())

    def test_no_netting_is_zero_not_negative(self):
        # Nothing nets here, and the settled and gross sums round apart.
        ledger = AccountingLedger()
        ledger.meter(record(provider="a", consumer="b", hours=6.0, price=10.0))
        ledger.meter(record(provider="c", consumer="d", hours=1.0,
                            price=4.146216777116827))
        ledger.meter(record(provider="a", consumer="d", hours=1.0,
                            price=1.1462167771168268))
        assert ledger.netting_efficiency() == 0.0

    def test_empty_ledger(self):
        ledger = AccountingLedger()
        assert ledger.settlement_transfers() == []
        assert ledger.netting_efficiency() == 0.0
        assert ledger.gross_volume() == 0.0
