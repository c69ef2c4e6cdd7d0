"""Physical unit constants and human-readable formatting.

All simulation quantities use SI base units unless stated otherwise:

* time in **seconds**,
* data sizes in **bytes**,
* data rates in **bytes per second**,
* compute in **floating-point operations** (FLOPs),
* power in **watts**, energy in **joules**.

The constants here let call sites write ``4 * GB`` or ``250 * NANOSECOND``
instead of raw exponents, and the ``format_*`` helpers render values for
reports and benchmark tables.
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------

NANOSECOND = 1e-9
MICROSECOND = 1e-6
MILLISECOND = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0

# --- data size (decimal and binary) ----------------------------------------

KB = 1e3
MB = 1e6
GB = 1e9
TB = 1e12
PB = 1e15

KIB = 1024.0
MIB = 1024.0**2
GIB = 1024.0**3
TIB = 1024.0**4

# --- compute ----------------------------------------------------------------

MFLOP = 1e6
GFLOP = 1e9
TFLOP = 1e12
PFLOP = 1e15
EFLOP = 1e18

# --- rates -------------------------------------------------------------------

#: One gigabit per second, expressed in bytes per second.
GBIT_PER_S = 1e9 / 8.0
#: One terabit per second, expressed in bytes per second.
TBIT_PER_S = 1e12 / 8.0


_TIME_STEPS = (
    (1.0, "s"),
    (MILLISECOND, "ms"),
    (MICROSECOND, "us"),
    (NANOSECOND, "ns"),
)

_SIZE_STEPS = (
    (PB, "PB"),
    (TB, "TB"),
    (GB, "GB"),
    (MB, "MB"),
    (KB, "KB"),
)


def _format_scaled(value, steps, base_scale, base_suffix, precision):
    """Pick the largest unit not exceeding ``value`` and render it.

    Rounding can carry a mantissa across the next unit's boundary —
    ``999.9999 ms`` renders as ``'1e+03 ms'`` under ``.3g`` — so after
    formatting, a mantissa that reached the neighbouring unit's ratio is
    re-rendered in that larger unit (``'1 s'``).
    """
    magnitude = abs(value)
    index = len(steps)  # sentinel: fell through to the base unit
    for position, (scale, suffix) in enumerate(steps):
        if magnitude >= scale:
            index, (scale, suffix) = position, (scale, suffix)
            break
    else:
        scale, suffix = base_scale, base_suffix
    rendered = f"{value / scale:.{precision}g}"
    larger = index - 1 if index < len(steps) else len(steps) - 1
    if larger >= 0:
        # Unit ratios are powers of ten; round away float-division noise
        # (1e-3 / 1e-6 is not exactly 1000.0).
        ratio = round(steps[larger][0] / scale)
        if abs(float(rendered)) >= ratio:
            scale, suffix = steps[larger]
            rendered = f"{value / scale:.{precision}g}"
    return f"{rendered} {suffix}"


def format_time(seconds: float, precision: int = 3) -> str:
    """Render a duration with an auto-selected unit, e.g. ``'1.25 ms'``.

    Durations of a minute or more are shown in seconds; zero is ``'0 s'``.
    """
    if seconds == 0:
        return "0 s"
    return _format_scaled(seconds, _TIME_STEPS, NANOSECOND, "ns", precision)


def format_bytes(num_bytes: float, precision: int = 3) -> str:
    """Render a byte count with an auto-selected decimal unit."""
    if num_bytes == 0:
        return "0 B"
    return _format_scaled(num_bytes, _SIZE_STEPS, 1.0, "B", precision)


def format_rate(bytes_per_second: float, precision: int = 3) -> str:
    """Render a data rate, e.g. ``'25 GB/s'``."""
    return f"{format_bytes(bytes_per_second, precision)}/s"
