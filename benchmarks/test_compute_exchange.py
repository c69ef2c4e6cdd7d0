"""Experiment C10 — §III.F/§III.G: the Open Compute Exchange.

"An Open Compute Exchange would enable trading of resources between sites
and users ... the underlying economic model is nothing but a
non-cooperative, zero-summed game, that eventually reaches equilibrium ...
a more effective compute resources sharing system, that is otherwise a lot
more liquid than if only supplied by a few service providers."

Three sub-experiments:

1. **Equilibrium**: an agent-based double auction (providers, consumers,
   a broker, speculators) must converge to the theoretical supply/demand
   clearing price, conserving cash (zero-sum).
2. **Liquidity ablation** (DESIGN.md §4): volume and price-discovery speed
   with and without broker/market-maker agents, and with few vs many
   providers.
3. **Staircase** (§III.G): capacity coverage of peak demand as the
   delivery model climbs bursting -> fluidity -> grid -> exchange.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tables import Table
from repro.core.rng import RandomSource
from repro.federation.bursting import DeliveryStage
from repro.federation.site import Site, SiteKind
from repro.market.agents import BrokerAgent, ConsumerAgent, ProviderAgent, SpeculatorAgent
from repro.market.equilibrium import clearing_price
from repro.market.exchange import ComputeExchange, MarketSimulation, ResourceClass

ROUNDS = 80


def build_market(providers=6, consumers=8, brokers=1, speculators=2, seed=23):
    exchange = ComputeExchange([ResourceClass("gpu-hour", "GPU device-hours")])
    suppliers, demanders = [], []
    for index in range(providers):
        cost = 0.8 + 0.6 * index / max(providers - 1, 1)
        exchange.register(
            ProviderAgent(f"prov{index}", marginal_cost=cost, capacity_per_round=20)
        )
        suppliers.append((cost, 20))
    for index in range(consumers):
        valuation = 1.0 + 1.0 * index / max(consumers - 1, 1)
        exchange.register(
            ConsumerAgent(f"cons{index}", valuation=valuation, demand_per_round=12)
        )
        demanders.append((valuation, 12))
    for index in range(brokers):
        exchange.register(BrokerAgent(f"broker{index}"))
    for index in range(speculators):
        exchange.register(SpeculatorAgent(f"spec{index}"))
    simulation = MarketSimulation(exchange, "gpu-hour", rng=RandomSource(seed=seed))
    return exchange, simulation, suppliers, demanders


def run_equilibrium():
    exchange, simulation, suppliers, demanders = build_market()
    cash_before = exchange.total_cash()
    simulation.run(ROUNDS)
    theory_price, theory_quantity = clearing_price(suppliers, demanders)
    return {
        "theory_price": theory_price,
        "theory_quantity": theory_quantity,
        "simulated_price": simulation.mean_price(last=20),
        "equilibrium_round": simulation.equilibrium_round(tolerance=0.05),
        "cash_error": abs(exchange.total_cash() - cash_before),
        "mean_volume": float(np.mean(simulation.volume_history[-20:])),
    }


def run_liquidity_ablation():
    rows = []
    for label, brokers, providers in (
        ("few providers, no broker", 0, 2),
        ("few providers, broker", 1, 2),
        ("many providers, no broker", 0, 8),
        ("many providers, broker", 1, 8),
    ):
        _, simulation, *_ = build_market(
            providers=providers, brokers=brokers, speculators=0, seed=31
        )
        simulation.run(ROUNDS)
        volume = sum(simulation.volume_history)
        converged = simulation.equilibrium_round(tolerance=0.05)
        rows.append((label, volume, converged if converged is not None else "never"))
    return rows


def run_staircase():
    """Capacity reachable at each delivery stage vs a 3x demand peak."""
    home = Site(name="home", kind=SiteKind.ON_PREMISE)
    sites = [
        home,
        Site(name="cloud-1", kind=SiteKind.CLOUD),
        Site(name="cloud-2", kind=SiteKind.CLOUD),
        Site(name="partner", kind=SiteKind.ON_PREMISE),
        Site(name="national-super", kind=SiteKind.SUPERCOMPUTER),
        Site(name="colo", kind=SiteKind.COLO),
    ]
    capacity = {
        "home": 100.0, "cloud-1": 400.0, "cloud-2": 400.0,
        "partner": 150.0, "national-super": 600.0, "colo": 120.0,
    }
    peak_demand = 3.0 * capacity["home"]
    rows = []
    for stage in DeliveryStage:
        reachable = sum(
            capacity[s.name] for s in stage.allowed_sites(home, sites)
        )
        rows.append(
            (
                int(stage),
                stage.name.lower(),
                reachable,
                min(1.0, reachable / peak_demand),
            )
        )
    return rows


def run_experiment():
    return run_equilibrium(), run_liquidity_ablation(), run_staircase()


def test_c10_compute_exchange(record):
    equilibrium, liquidity, staircase = run_experiment()

    table = Table(
        "C10 (SIII.F): Open Compute Exchange — equilibrium convergence",
        ["metric", "value"],
    )
    table.add_row("theoretical clearing price ($/GPU-h)", equilibrium["theory_price"])
    table.add_row("simulated steady price (last 20 rounds)", equilibrium["simulated_price"])
    table.add_row("equilibrium reached at round", equilibrium["equilibrium_round"])
    table.add_row("cash conservation error ($)", equilibrium["cash_error"])
    table.add_row("mean cleared volume/round (device-h)", equilibrium["mean_volume"])
    table.add_row("theoretical equilibrium volume", equilibrium["theory_quantity"])

    liquidity_table = Table(
        "C10 ablation: liquidity vs market structure",
        ["market structure", "total volume", "equilibrium round"],
    )
    for row in liquidity:
        liquidity_table.add_row(*row)

    staircase_table = Table(
        "C10 staircase (SIII.G): capacity coverage of a 3x demand peak",
        ["stage", "delivery model", "reachable capacity", "peak coverage"],
    )
    for row in staircase:
        staircase_table.add_row(*row)

    record(
        "C10_compute_exchange",
        table,
        notes=liquidity_table.render() + "\n\n" + staircase_table.render(),
    )

    # Zero-sum: cash conserved to numerical precision.
    assert equilibrium["cash_error"] < 1e-6
    # Convergence to within 15% of theory, detected as an equilibrium.
    assert equilibrium["simulated_price"] == pytest.approx(
        equilibrium["theory_price"], rel=0.15
    )
    assert equilibrium["equilibrium_round"] is not None
    # Liquidity: more providers and a broker never reduce volume.
    volumes = {label: volume for label, volume, _ in liquidity}
    assert volumes["many providers, broker"] > volumes["few providers, no broker"]
    # Staircase: coverage is monotone and only the open stages cover the peak.
    coverage = [row[3] for row in staircase]
    assert coverage == sorted(coverage)
    assert coverage[0] < 0.5
    assert coverage[-1] == 1.0
