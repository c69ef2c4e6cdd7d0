"""Experiment C11 — §III.E: the business case for board standardisation.

"Any given platform enablement effort can now easily reach a few million
dollars in development cost. These two pre-conditions are putting the
industry in front of a difficult conundrum, where the silicon ecosystem is
blooming but the ever more expensive system development process can really
sustain fewer and fewer options. ... the industry should drive towards a
standard for motherboards and other electronic sub-components."

We sweep vendor count for the paper's "more than a dozen configurations"
silicon ecosystem, comparing total industry development cost under
per-vendor custom enablement vs an OCP-like standard-board model, and how
many silicon options a fixed $100M industry R&D pool sustains under each.

Expected shape: custom cost grows linearly in vendors while standard cost
is nearly flat; beyond ~2 vendors the standard model wins, with >70%
savings at industry scale; the standard model sustains several times more
silicon options — "truly enable a diverse silicon ecosystem".
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.economics.platform import (
    PlatformCostModel,
    default_silicon_ecosystem,
    standardization_savings,
)

VENDOR_COUNTS = (1, 2, 4, 8, 16)
BUDGET = 100e6


def run_experiment():
    model = PlatformCostModel()
    ecosystem = default_silicon_ecosystem()
    rows = []
    for vendors in VENDOR_COUNTS:
        custom = model.custom_total_cost(ecosystem, vendors)
        standard = model.standard_total_cost(ecosystem, vendors)
        rows.append(
            (
                vendors,
                custom / 1e6,
                standard / 1e6,
                standardization_savings(model, ecosystem, vendors),
                model.sustainable_options(BUDGET, vendors, standard=False),
                model.sustainable_options(BUDGET, vendors, standard=True),
            )
        )
    return rows


def test_c11_platform_economics(record):
    rows = run_experiment()

    model = PlatformCostModel()
    ecosystem = default_silicon_ecosystem()
    table = Table(
        f"C11 (SIII.E): platform enablement economics, {len(ecosystem)} silicon options",
        ["vendors", "custom total ($M)", "standard total ($M)", "saving",
         f"options under ${BUDGET/1e6:.0f}M (custom)",
         f"options under ${BUDGET/1e6:.0f}M (standard)"],
    )
    for row in rows:
        table.add_row(*row)
    record(
        "C11_platform_economics",
        table,
        notes=(
            "Paper claims: enablement costs 'a few million dollars' each; the\n"
            "industry 'can really sustain fewer and fewer options'; an\n"
            "OCP-like standard would 'truly enable a diverse silicon\n"
            "ecosystem'. Expected: custom cost linear in vendors, standard\n"
            "nearly flat, crossover by ~2 vendors, >70% savings at 16 vendors."
        ),
    )

    by_vendors = {row[0]: row for row in rows}
    # Single vendor: custom is cheaper (no premium amortisation).
    assert by_vendors[1][1] < by_vendors[1][2]
    # From 2 vendors on, the standard model wins and savings grow.
    savings = [row[3] for row in rows]
    assert savings == sorted(savings)
    assert by_vendors[2][2] < by_vendors[2][1]
    assert by_vendors[16][3] > 0.7
    # Sustainability: the standard model carries >= 3x the options at scale.
    assert by_vendors[8][5] >= 3 * by_vendors[8][4]
