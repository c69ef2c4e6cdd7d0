"""Numeric precision ladder used across device models.

The paper notes that digital accelerators "squeeze the inefficiencies away
from deep learning algorithms ... by reducing bit precision" and that
"specialized reduced precision floating point formats and tensor cores" are
becoming mainstream (§III.B). Devices therefore advertise a per-precision
peak throughput; workloads request a precision and the device model reports
whether (and how fast) it can run.
"""

from __future__ import annotations

from enum import Enum


class Precision(Enum):
    """Numeric formats a device may support.

    Values are ``(label, bits)`` pairs rather than bare bit widths: several
    distinct formats share a width (BF16/FP16 are both 16-bit, ANALOG's
    equivalent precision matches INT8), and Python enums silently alias
    members with equal values — BF16 and FP16 must stay distinct formats.
    """

    FP64 = ("fp64", 64)
    FP32 = ("fp32", 32)
    TF32 = ("tf32", 19)
    BF16 = ("bf16", 16)
    FP16 = ("fp16", 16)
    INT8 = ("int8", 8)
    INT4 = ("int4", 4)
    #: Analog computation: effective precision is set by device noise, not a
    #: digital word width; 8 bits is the commonly-reported equivalent.
    ANALOG = ("analog", 8)

    def __init__(self, label: str, bits: int) -> None:
        self.label = label
        self._bits = bits

    @property
    def bits(self) -> int:
        """Storage width in bits."""
        return self._bits

    @property
    def bytes(self) -> float:
        """Storage width in bytes (may be fractional for sub-byte formats)."""
        return self._bits / 8.0

    def __str__(self) -> str:
        return self.name.lower()


#: Precisions ordered from widest to narrowest; used when a scheduler
#: degrades precision to fit a device ("model compilation to reduced
#: precision arithmetic" per §III.D).
PRECISION_LADDER = (
    Precision.FP64,
    Precision.FP32,
    Precision.TF32,
    Precision.BF16,
    Precision.FP16,
    Precision.INT8,
    Precision.INT4,
)


def narrower_precisions(precision: Precision) -> tuple:
    """All ladder entries strictly narrower than ``precision``.

    ANALOG is treated as INT8-equivalent for ladder placement.
    """
    reference = Precision.INT8 if precision is Precision.ANALOG else precision
    if reference not in PRECISION_LADDER:
        raise ValueError(f"{precision} is not on the precision ladder")
    index = PRECISION_LADDER.index(reference)
    return PRECISION_LADDER[index + 1:]
