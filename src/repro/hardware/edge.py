"""Edge inference accelerator model.

The paper (§III.B): "At the facility edge, new accelerators (for inference)
will need to be lighter, power optimized, in some cases tightly integrated
with sensors and instruments themselves, and designed to operate in
'hostile' environments across very aggressive temperature ranges, and even
radiation in some cases."

The reproduction runs the edge part on the roofline base alone: a
low-power device of kind ``EDGE_INFERENCE`` in the catalog.
"""

from __future__ import annotations

from repro.hardware.device import Device, DeviceKind, DeviceSpec


class EdgeInferenceAccelerator(Device):
    """A low-power inference part deployed next to an instrument.

    ``spec`` must be of kind ``EDGE_INFERENCE``; its TDP is typically
    single-digit watts.
    """

    def __init__(self, spec: DeviceSpec) -> None:
        if spec.kind is not DeviceKind.EDGE_INFERENCE:
            raise ValueError(
                f"edge model requires EDGE_INFERENCE spec, got {spec.kind}"
            )
        super().__init__(spec)
