"""Experiment C19 — §III.F: the monitoring/accounting foundation.

"It will also put in place the monitoring and accounting framework to
capture the resource exchange between the sites. Such resource consumption
data collection could lay the foundation to an 'Open Compute Exchange'."

Pipeline: a mixed 120-job trace runs over a three-org federation with the
meta-scheduler; every placement is metered into the accounting ledger
(device-hours, energy pass-through, egress). We report:

* per-site gross revenue/spend and the inter-site settlement after
  bilateral netting (the accounting machinery that makes "facilitated
  sharing between sites" financially practical),
* market procurement of the same consumed device-hours versus each
  provider's posted on-demand price (the exchange the accounting lays the
  foundation for).

Expected shape: netting removes a large share of gross money movement
(mutual provision mostly cancels); market procurement prices the hours
between the marginal provider's floor and the posted rate, saving > 30%.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.core.rng import RandomSource
from repro.federation import Federation, MeterRecord, Site, SiteKind, WanLink
from repro.federation.accounting import AccountingLedger
from repro.hardware import default_catalog
from repro.market.agents import Agent
from repro.market.exchange import ComputeExchange, ResourceClass
from repro.market.procurement import (
    CapacityOffer,
    CapacityProcurer,
    market_savings,
)
from repro.scheduling import MetaScheduler, PlacementPolicy
from repro.workloads import JobTraceGenerator, TraceConfig

POSTED_PRICE = 3.0  # on-demand $/device-hour, any provider


class _PassiveAgent(Agent):
    def quote(self, view, rng):
        return []


def build_federation():
    catalog = default_catalog()
    cpu = catalog.get("epyc-class-cpu")
    gpu = catalog.get("hpc-gpu")
    tpu = catalog.get("tpu-like")
    federation = Federation(name="c19")
    university = Site(
        name="university", kind=SiteKind.ON_PREMISE, devices={cpu: 64},
        price_per_device_hour={"epyc-class-cpu": 0.6},
    )
    national_lab = Site(
        name="national-lab", kind=SiteKind.SUPERCOMPUTER,
        devices={cpu: 128, gpu: 64, tpu: 32},
        price_per_device_hour={
            "epyc-class-cpu": 0.8, "hpc-gpu": 2.0, "tpu-like": 1.6,
        },
    )
    cloud = Site(
        name="cloud", kind=SiteKind.CLOUD, devices={cpu: 256, gpu: 64},
        price_per_device_hour={"epyc-class-cpu": 1.0, "hpc-gpu": 2.4},
    )
    for site in (university, national_lab, cloud):
        federation.add_site(site)
    federation.connect(university, national_lab, WanLink(bandwidth=1.25e9, latency=0.01))
    federation.connect(university, cloud, WanLink(bandwidth=0.625e9, latency=0.03,
                                                  cost_per_gb=0.08))
    federation.connect(national_lab, cloud, WanLink(bandwidth=1.25e9, latency=0.02,
                                                    cost_per_gb=0.08))
    return federation


#: Which organisation pays for each job (round-robin home orgs).
ORGS = ("university", "national-lab", "cloud")


def run_experiment():
    federation = build_federation()
    scheduler = MetaScheduler(federation, policy=PlacementPolicy.BEST_SILICON)
    trace = JobTraceGenerator(
        TraceConfig(arrival_rate=0.02, duration=20_000.0, max_jobs=120),
        rng=RandomSource(seed=191),
    ).generate()
    scheduler.run(trace)

    # Meter every placement: consumer = submitting org (round robin),
    # provider = executing site.
    ledger = AccountingLedger()
    for index, decision in enumerate(scheduler.decisions):
        consumer = ORGS[index % len(ORGS)]
        device_hours = decision.runtime / 3600.0 * decision.job.ranks
        ledger.meter(MeterRecord(
            job_name=decision.job.name,
            consumer=consumer,
            provider=decision.site.name,
            device_name=decision.device.name,
            device_hours=device_hours,
            energy_joules=decision.energy,
            price_per_device_hour=decision.site.hourly_price(decision.device),
            energy_price_per_kwh=0.08,
        ))

    balances = ledger.net_balances()
    transfers = ledger.settlement_transfers()

    # Market procurement of the federation's consumed CPU-hours.
    cpu_hours = sum(
        record.device_hours for record in ledger.records
        if record.device_name == "epyc-class-cpu"
    )
    exchange = ComputeExchange([ResourceClass("epyc-class-cpu-hour")])
    offers = []
    for site in federation.sites:
        exchange.register(_PassiveAgent(f"{site.name}/epyc-class-cpu"))
        cpu_device = next(d for d in site.devices if d.name == "epyc-class-cpu")
        offers.append(CapacityOffer(
            site=site, device_name="epyc-class-cpu",
            idle_fraction=1.0,
            floor_price=site.hourly_price(cpu_device),
        ))
    exchange.register(_PassiveAgent("buyer"))
    procurer = CapacityProcurer(exchange, buyer_id="buyer", max_price=POSTED_PRICE)
    procurer.list_offers(offers)
    result = procurer.procure("epyc-class-cpu", max(cpu_hours, 1.0))
    savings = market_savings(result, posted_price=POSTED_PRICE)

    return ledger, balances, transfers, result, savings


def test_c19_federated_accounting(record):
    ledger, balances, transfers, procurement, savings = run_experiment()

    table = Table(
        "C19 (SIII.F): inter-site accounting over a 120-job federated trace",
        ["organisation", "gross revenue ($)", "gross spend ($)", "net balance ($)"],
    )
    for org in ORGS:
        table.add_row(
            org,
            ledger.provider_revenue(org),
            ledger.consumer_spend(org),
            balances.get(org, 0.0),
        )

    settlement_table = Table(
        "C19 settlement: netted transfers",
        ["debtor", "creditor", "amount ($)"],
    )
    for debtor, creditor, amount in transfers:
        settlement_table.add_row(debtor, creditor, amount)

    record(
        "C19_federated_accounting",
        table,
        notes=(
            settlement_table.render()
            + f"\n\nGross volume ${ledger.gross_volume():.2f}; netting saves "
            f"{ledger.netting_efficiency():.0%} of money movement.\n"
            f"Market procurement of {procurement.acquired_hours:.1f} CPU-hours: "
            f"${procurement.total_cost:.2f} (avg ${procurement.average_price:.2f}/h) "
            f"vs posted ${POSTED_PRICE:.2f}/h -> {savings:.0%} saving.\n"
            "Paper claim: the accounting framework capturing resource\n"
            "exchange 'could lay the foundation to an Open Compute Exchange'."
        ),
    )

    # Conservation: balances sum to zero; transfers settle everything.
    assert sum(balances.values()) == pytest.approx(0.0, abs=1e-6)
    settled = dict(balances)
    for debtor, creditor, amount in transfers:
        settled[debtor] += amount
        settled[creditor] -= amount
    assert all(abs(value) < 1e-6 for value in settled.values())
    # Netting removes a meaningful share of gross movement.
    assert ledger.netting_efficiency() > 0.2
    # Market procurement beats the posted on-demand rate clearly.
    assert procurement.fill_rate == pytest.approx(1.0)
    assert savings > 0.3
