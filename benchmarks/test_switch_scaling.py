"""Experiment C3 — §II.B: the switch scaling wall.

"State of the art switches (12.8 Tbps) combine high radix and high per-port
bandwidth. Current designs have one more natural step (to 25.6 Tbps with 64
ports at 400 Gbps). These designs have a very high wire density, much of
their area is taken up by SerDes, and they make only limited gains from
improvements in process technology. Radical change is required beyond this
point."

We sweep the switch roadmap (12.8 -> 102.4 Tbps), reporting die area split
into SerDes and core, the SerDes area fraction, and manufacturability
against the reticle limit — then show silicon-photonics escape (§III.C)
rescuing the post-25.6T generations.

Expected shape: exactly one more generation (25.6T) is manufacturable
electrically; SerDes fraction grows monotonically; co-packaged optics
brings 51.2T/102.4T back under (or near) the reticle.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.interconnect.photonics import escape_bandwidth_tbps
from repro.interconnect.switch import RETICLE_LIMIT_MM2, roadmap


def run_experiment():
    rows = []
    for generation in roadmap():
        spec = generation.spec
        rescued = spec.with_optical_escape(0.95)
        rows.append(
            (
                generation.name,
                spec.throughput_tbps,
                spec.serdes_area(),
                spec.core_area(),
                spec.die_area(),
                spec.serdes_fraction(),
                "yes" if spec.is_manufacturable() else "NO",
                rescued.die_area(),
                "yes" if rescued.is_manufacturable() else "NO",
            )
        )
    return rows


def test_c3_switch_scaling(record):
    rows = run_experiment()

    table = Table(
        "C3 (SII.B): switch ASIC roadmap vs the reticle limit "
        f"({RETICLE_LIMIT_MM2:.0f} mm^2)",
        ["generation", "Tbps", "SerDes mm^2", "core mm^2", "die mm^2",
         "SerDes frac", "manufacturable", "die mm^2 w/ SiPh escape",
         "manufacturable w/ SiPh"],
    )
    for row in rows:
        table.add_row(*row)
    record(
        "C3_switch_scaling",
        table,
        notes=(
            "Paper claims: 'one more natural step' to 25.6T; SerDes dominates\n"
            "die area and does not shrink; 'radical change is required beyond\n"
            "this point' — which SiPh escape provides (SIII.C): 256 fibres of\n"
            f"8x100G WDM give {escape_bandwidth_tbps(256):.1f} Tbps off-ASIC."
        ),
    )

    manufacturable = [row[6] == "yes" for row in rows]
    assert manufacturable == [True, True, False, False]
    serdes_fractions = [row[5] for row in rows]
    assert serdes_fractions == sorted(serdes_fractions)
    assert serdes_fractions[-1] > 0.5
    # SiPh escape rescues the 51.2T generation.
    rescued = {row[0]: row[8] for row in rows}
    assert rescued["51.2T (64x800G)"] == "yes"
