"""Unit helpers and conversions.

Internally the whole codebase uses **bytes** for sizes, **bytes/second** for
bandwidth and **seconds** for time.  These helpers keep conversions from the
mixed units used in the paper (GB/s for NVLink and PCIe, Gbps for NICs,
milliseconds for iteration times) explicit and auditable.
"""

from __future__ import annotations

__all__ = [
    "KB",
    "MB",
    "GB",
    "GIB",
    "US",
    "gbps",
    "gbytes_per_s",
    "to_gbps",
]

# Decimal sizes (used for traffic volumes, matching the paper's "GB").
KB = 1e3
MB = 1e6
GB = 1e9

# Binary sizes (used for device memory capacities).
GIB = 1024.0**3

# Time.
US = 1e-6


def gbps(value: float) -> float:
    """Convert gigabits per second to bytes per second."""
    return value * 1e9 / 8.0


def gbytes_per_s(value: float) -> float:
    """Convert gigabytes per second to bytes per second."""
    return value * 1e9


def to_gbps(bytes_per_s: float) -> float:
    """Convert bytes per second to gigabits per second."""
    return bytes_per_s * 8.0 / 1e9
