"""Core simulation infrastructure shared by every subsystem.

The :mod:`repro.core` package provides the discrete-event simulation kernel
(:class:`~repro.core.events.Simulation`), physical unit constants and
formatting helpers (:mod:`repro.core.units`), seeded random-number management
(:mod:`repro.core.rng`) and the exception hierarchy used across the library.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".atomicio": ("atomic_write_bytes", "atomic_write_text",
                  "fsync_directory"),
    ".errors": (
        "CapacityError", "ConfigurationError", "ReproError", "SimulationError",
    ),
    ".events": ("Event", "Simulation", "SimulationHooks"),
    ".rng": ("RandomSource",),
    ".units": (
        "GB", "GIB", "HOUR", "KB", "KIB", "MB", "MIB", "MICROSECOND",
        "MILLISECOND", "MINUTE", "NANOSECOND", "PB", "TB", "GFLOP", "MFLOP",
        "PFLOP", "TFLOP", "format_bytes", "format_rate",
        "format_time",
    ),
})
