"""Synthetic kernel generators for the twelve RMS workloads of Table 1.

Each kernel walks the data structures of its algorithm and returns an
endless iterator of column blocks of raw accesses; see
:mod:`repro.traces.kernels.base` for the block format and the shared
data-region helpers.
"""

from repro.traces.kernels.base import (
    Block,
    KernelParams,
    Region,
    private_base,
    SHARED_BASE,
)
from repro.traces.kernels.registry import KERNELS, kernel_names, get_kernel

__all__ = [
    "Block",
    "KernelParams",
    "Region",
    "private_base",
    "SHARED_BASE",
    "KERNELS",
    "kernel_names",
    "get_kernel",
]
