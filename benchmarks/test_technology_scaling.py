"""Experiment C13 — §I/§II.A: the end of scaling, quantified.

"After decades of steady gains driven by semiconductor process
improvements, we have run out of the traditional means of increasing
computational capacity. The HPC architecture of today ... will need to
rely on specialization." And §II.A: the Killer-Micro era "lasted from the
early '90s until recently"; Dennard scaling ended "roughly 2005".

The technology model tracks density, frequency, power density and the lit
(non-dark) die fraction across a 2005-2024 roadmap, deriving the
general-purpose throughput trajectory vs a specialised architecture on the
same silicon.

Expected shape: power density rises monotonically once voltage stalls
(Dennard break detected near 2005-2010); the lit fraction collapses toward
~15% (dark silicon); per-generation general-purpose gains fall below 1.3x;
and one specialisation step buys more than two further process shrinks —
the paper's entire premise.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.hardware.technology import (
    GENERAL_PURPOSE,
    SPECIALIZED,
    default_roadmap,
    dennard_break_year,
)


def run_experiment():
    rows = []
    previous_gp = None
    for node in default_roadmap():
        gp = GENERAL_PURPOSE.throughput(node)
        sp = SPECIALIZED.throughput(node)
        gain = gp / previous_gp if previous_gp else float("nan")
        previous_gp = gp
        rows.append(
            (
                node.name,
                node.year,
                node.density,
                node.power_density(),
                node.lit_fraction(),
                gp,
                gain,
                sp,
            )
        )
    return rows


def test_c13_technology_scaling(record):
    rows = run_experiment()

    table = Table(
        "C13 (SI/SII.A): process roadmap, dark silicon, and the case for "
        "specialisation",
        ["node", "year", "density (x)", "power density (x)", "lit fraction",
         "GP throughput (x)", "GP gain/gen", "specialised throughput (x)"],
    )
    for row in rows:
        table.add_row(*row)
    record(
        "C13_technology_scaling",
        table,
        notes=(
            f"Dennard break detected: {dennard_break_year()} (paper: 'roughly\n"
            "2005'). Specialisation multiplier: 40x transistors-to-throughput\n"
            "efficiency — one specialisation step outruns two process nodes."
        ),
    )

    assert 2005 <= dennard_break_year() <= 2011
    lit = [row[4] for row in rows]
    assert lit == sorted(lit, reverse=True)
    assert lit[-1] < 0.2
    # Late-roadmap general-purpose gains have collapsed.
    late_gain = rows[-1][6]
    assert late_gain < 1.4
    # Specialisation today beats general purpose two nodes later.
    roadmap = default_roadmap()
    assert SPECIALIZED.throughput(roadmap[-3]) > GENERAL_PURPOSE.throughput(
        roadmap[-1]
    )
