"""Platform economics: the cost case for board standardisation.

The paper (§III.E): "any given platform enablement effort can now easily
reach a few million dollars in development cost ... the industry should
drive towards a standard for motherboards and other electronic
sub-components" (an Open-Compute-Project-like model).

:mod:`repro.economics.platform` models the combinatorial explosion of
(silicon options x vendors) platform developments and the amortisation a
standard board achieves.  :mod:`repro.economics.energy` scores runs in
joules and kg CO2e (operational via PUE and grid intensity, embodied via
ESII-style carbon-per-GiB) so sweeps can trade reliability against
sustainability.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".energy": ("EnergyCarbonModel",),
    ".platform": (
        "PlatformCostModel", "SiliconOption", "standardization_savings",
    ),
})
