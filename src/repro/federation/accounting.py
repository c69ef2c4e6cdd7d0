"""Monitoring, metering and inter-site settlement.

The paper (§III.F): "It will also put in place the monitoring and
accounting framework to capture the resource exchange between the sites.
Such resource consumption data collection could lay the foundation to an
'Open Compute Exchange'."

Components:

* :class:`MeterRecord` — one job's metered consumption at a provider site
  (device-hours, energy, data egress),
* :class:`AccountingLedger` — append-only record store with per-site and
  per-consumer aggregation, invoice generation, and bilateral netting of
  inter-site balances (the accounting substrate an exchange settles on).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError

_record_ids = itertools.count()


@dataclass(frozen=True)
class MeterRecord:
    """One job's metered consumption at a provider.

    Attributes
    ----------
    job_name:
        The metered job.
    consumer:
        Paying organisation (usually the submitting site or user org).
    provider:
        Site that supplied the resources.
    device_name:
        Device model used.
    device_hours:
        Device-hours consumed.
    energy_joules:
        Energy consumed.
    egress_bytes:
        Data moved out of the provider on the job's behalf.
    price_per_device_hour:
        Agreed $/device-hour.
    energy_price_per_kwh:
        $/kWh passed through.
    egress_price_per_gb:
        $/GB for egress.
    timestamp:
        Metering time (simulated seconds).
    """

    job_name: str
    consumer: str
    provider: str
    device_name: str
    device_hours: float
    energy_joules: float = 0.0
    egress_bytes: float = 0.0
    price_per_device_hour: float = 1.0
    energy_price_per_kwh: float = 0.0
    egress_price_per_gb: float = 0.0
    timestamp: float = 0.0
    record_id: int = field(default_factory=lambda: next(_record_ids))

    def __post_init__(self) -> None:
        if self.device_hours < 0 or self.energy_joules < 0 or self.egress_bytes < 0:
            raise ConfigurationError("metered quantities must be non-negative")
        if min(self.price_per_device_hour, self.energy_price_per_kwh,
               self.egress_price_per_gb) < 0:
            raise ConfigurationError("prices must be non-negative")

    @property
    def compute_charge(self) -> float:
        return self.device_hours * self.price_per_device_hour

    @property
    def energy_charge(self) -> float:
        return (self.energy_joules / 3.6e6) * self.energy_price_per_kwh

    @property
    def egress_charge(self) -> float:
        return (self.egress_bytes / 1e9) * self.egress_price_per_gb

    @property
    def total_charge(self) -> float:
        return self.compute_charge + self.energy_charge + self.egress_charge


@dataclass(frozen=True)
class Invoice:
    """Aggregated charges from one provider to one consumer."""

    provider: str
    consumer: str
    records: Tuple[MeterRecord, ...]

    @property
    def total(self) -> float:
        return sum(record.total_charge for record in self.records)

    @property
    def device_hours(self) -> float:
        return sum(record.device_hours for record in self.records)


class AccountingLedger:
    """Append-only meter-record store with aggregation and netting."""

    def __init__(self) -> None:
        self._records: List[MeterRecord] = []

    def meter(self, record: MeterRecord) -> MeterRecord:
        self._records.append(record)
        return record

    @property
    def records(self) -> List[MeterRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    # --- aggregation ------------------------------------------------------------

    def provider_revenue(self, provider: str) -> float:
        return sum(
            r.total_charge for r in self._records if r.provider == provider
        )

    def consumer_spend(self, consumer: str) -> float:
        return sum(
            r.total_charge for r in self._records if r.consumer == consumer
        )

    def device_hours_by_provider(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for record in self._records:
            totals[record.provider] = totals.get(record.provider, 0.0) + record.device_hours
        return totals

    def invoice(self, provider: str, consumer: str) -> Invoice:
        """All charges from one provider to one consumer."""
        matching = tuple(
            r for r in self._records
            if r.provider == provider and r.consumer == consumer
        )
        return Invoice(provider=provider, consumer=consumer, records=matching)

    def invoices(self) -> List[Invoice]:
        """One invoice per (provider, consumer) pair with any charges."""
        pairs = sorted({(r.provider, r.consumer) for r in self._records})
        return [self.invoice(provider, consumer) for provider, consumer in pairs]

    # --- settlement -----------------------------------------------------------

    def net_balances(self) -> Dict[str, float]:
        """Net dollar position per organisation (+ = owed money).

        Sites are both providers and consumers in a federation; netting
        reduces the money that actually moves — the mechanism that makes
        "facilitated sharing between sites" financially practical.
        """
        balances: Dict[str, float] = {}
        for record in self._records:
            charge = record.total_charge
            balances[record.provider] = balances.get(record.provider, 0.0) + charge
            balances[record.consumer] = balances.get(record.consumer, 0.0) - charge
        return balances

    def settlement_transfers(self) -> List[Tuple[str, str, float]]:
        """A minimal-ish set of transfers settling all net balances.

        Greedy matching of largest debtor to largest creditor; the sum of
        transfers equals the sum of positive balances (conservation).
        """
        balances = self.net_balances()
        creditors = sorted(
            ((org, amount) for org, amount in balances.items() if amount > 1e-9),
            key=lambda item: -item[1],
        )
        debtors = sorted(
            ((org, -amount) for org, amount in balances.items() if amount < -1e-9),
            key=lambda item: -item[1],
        )
        transfers: List[Tuple[str, str, float]] = []
        creditor_index = 0
        for debtor, owed in debtors:
            remaining = owed
            while remaining > 1e-9 and creditor_index < len(creditors):
                creditor, due = creditors[creditor_index]
                amount = min(remaining, due)
                transfers.append((debtor, creditor, amount))
                remaining -= amount
                due -= amount
                if due <= 1e-9:
                    creditor_index += 1
                else:
                    creditors[creditor_index] = (creditor, due)
        return transfers

    def gross_volume(self) -> float:
        """Total charges before netting."""
        return sum(r.total_charge for r in self._records)

    def netting_efficiency(self) -> float:
        """1 - (settled dollars / gross dollars): how much netting saves."""
        gross = self.gross_volume()
        if gross == 0:
            return 0.0
        settled = sum(amount for _, _, amount in self.settlement_transfers())
        # Netting never settles more than the gross, but the two sums round
        # differently: clamp so a no-savings ledger reports 0.0, not -ulp.
        return max(0.0, 1.0 - settled / gross)
