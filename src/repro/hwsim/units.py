"""Unit helpers used throughout the hardware model.

All internal times are seconds, sizes are bytes, bandwidths are bytes/second,
and rates are hertz.  These helpers keep call sites readable.
"""

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

KB = 1_000
MB = 1_000 * KB
GB = 1_000 * MB
TB = 1_000 * GB

US = 1e-6
MS = 1e-3
NS = 1e-9

GHZ = 1e9
MHZ = 1e6

GBPS = GB  # bytes/second when used for bandwidth given in GB/s


def gbit_per_s(gbits: float) -> float:
    """Convert a link speed quoted in Gbit/s into bytes/second."""
    return gbits * 1e9 / 8.0
