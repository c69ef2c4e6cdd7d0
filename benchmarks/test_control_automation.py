"""Experiment C18 — §III.A/§III.D: minimising the human in the loop.

"Real-time predictive analytics, control, and optimization is needed to
minimize the need of a human-in-the-loop for operating the instrumentation
edge." And §III.D: the challenge is "balancing the degree of human in the
loop — just enough to maintain control over some of the high-level
decisions — not too much to maintain the sufficient automation."

Part 1: science yield (control events acted on within a 50 ms deadline)
versus event rate for three decision tiers: human operator, remote AI
behind a 40 ms WAN round trip, and edge AI.

Part 2: the §III.D balance — yield at a 1 kHz instrument as the fraction
of decisions routed to the supervising human sweeps 0 -> 10%.

Expected shape: the human tier collapses beyond ~0.05 events/s; remote AI
is capped by the WAN floor when deadlines tighten below the RTT; edge AI
holds >99% across the sweep. In part 2, a sub-0.1% human fraction costs
almost nothing while 10% destroys half the yield — "just enough, not too
much" made quantitative.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.workloads.control import (
    TieredControlPolicy,
    edge_ai,
    human_operator,
    remote_ai,
    science_yield,
)

EVENT_RATES = (0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0)
#: Two control classes: slow reconfiguration decisions (minutes-scale
#: deadline, historically the operator's job) and real-time feedback
#: (50 ms — beam steering, trigger decisions).
SLOW_DEADLINE = 120.0
REALTIME_DEADLINE = 0.05
DEADLINE = REALTIME_DEADLINE
HUMAN_FRACTIONS = (0.0, 0.0001, 0.001, 0.01, 0.1)


def run_experiment():
    tiers = (human_operator(), remote_ai(wan_rtt=0.04), edge_ai())
    rows = []
    for rate in EVENT_RATES:
        for tier in tiers:
            rows.append(
                (
                    rate,
                    tier.name,
                    science_yield(tier, rate, SLOW_DEADLINE),
                    science_yield(tier, rate, REALTIME_DEADLINE),
                )
            )
    return rows


def balance_sweep():
    rows = []
    for fraction in HUMAN_FRACTIONS:
        policy = TieredControlPolicy(
            automated=edge_ai(), human=human_operator(), human_fraction=fraction
        )
        rows.append((fraction, policy.yield_at(1_000.0, DEADLINE)))
    return rows


def test_c18_control_automation(record):
    rows = run_experiment()

    table = Table(
        "C18 (SIII.A): science yield vs event rate, by decision tier",
        ["event rate (/s)", "decision tier",
         f"slow-control yield ({SLOW_DEADLINE:.0f} s deadline)",
         f"real-time yield ({REALTIME_DEADLINE * 1e3:.0f} ms deadline)"],
    )
    for row in rows:
        table.add_row(*row)

    balance = balance_sweep()
    balance_table = Table(
        "C18 balance (SIII.D): yield at 1 kHz vs human decision fraction",
        ["human fraction", "combined yield"],
    )
    for row in balance:
        balance_table.add_row(*row)

    record(
        "C18_control_automation",
        table,
        notes=(
            "Paper claims: automation must 'minimize the need of a\n"
            "human-in-the-loop'; the balance is 'just enough to maintain\n"
            "control ... not too much'.\n\n" + balance_table.render()
        ),
    )

    slow = {(rate, tier): y for rate, tier, y, _ in rows}
    realtime = {(rate, tier): y for rate, tier, _, y in rows}
    # The human handles slow control at glacial rates only, and can never
    # meet the real-time deadline at any rate.
    assert slow[(0.01, "human-operator")] > 0.8
    assert slow[(1.0, "human-operator")] == 0.0
    assert all(realtime[(rate, "human-operator")] == 0.0 for rate in EVENT_RATES)
    # Edge AI dominates remote AI and holds > 99% everywhere.
    for rate in EVENT_RATES:
        assert realtime[(rate, "edge-ai")] >= realtime[(rate, "remote-ai")]
        assert realtime[(rate, "edge-ai")] > 0.99
    # The balance: tiny human fraction is free, large is ruinous.
    balance_yield = dict(balance)
    assert balance_yield[0.0001] > 0.99
    assert balance_yield[0.1] < 0.95
    series = [y for _, y in balance]
    assert series == sorted(series, reverse=True)
