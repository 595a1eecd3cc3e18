"""Registry of the twelve RMS kernels with their default footprints.

The default footprints place each workload on Figure 5's capacity axis
the way the paper's data does: conj, dSym, sSym, sAVDF, sAVIF, and svd
fit the 4 MB baseline cache (flat CPMA); gauss, pcg, sMVM, sTrans, sUS,
and svm have working sets between 11 and 28 MB and are the workloads the
paper reports "decrease dramatically as the last level cache increases
from 4 to 64MB".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List

from repro.traces.kernels import dense, rigidity, sparse, svm as svm_mod
from repro.traces.kernels.base import Block, KernelParams

MB = 1 << 20

KernelFn = Callable[..., Iterator[Block]]


@dataclass(frozen=True)
class KernelEntry:
    """A registered kernel: its block function and default sizing."""

    name: str
    fn: KernelFn
    default_footprint: int
    description: str


KERNELS: Dict[str, KernelEntry] = {
    entry.name: entry
    for entry in [
        KernelEntry("conj", sparse.conj, int(1.4 * MB),
                    "Conjugate Gradient Solver (solids)"),
        KernelEntry("dsym", dense.dsym, 2 * MB,
                    "Dense Matrix Multiplication (blocked)"),
        KernelEntry("gauss", dense.gauss, 16 * MB,
                    "Linear Equation Solver, Gauss-Jordan Elimination"),
        KernelEntry("pcg", sparse.pcg, 14 * MB,
                    "Preconditioned Conjugate Gradient, Cholesky/red-black"),
        KernelEntry("smvm", sparse.smvm, 20 * MB,
                    "Sparse Matrix Multiplication"),
        KernelEntry("ssym", sparse.ssym, 2 * MB,
                    "Symmetrical Sparse Matrix Multiplication"),
        KernelEntry("strans", sparse.strans, 20 * MB,
                    "Transposed Sparse Matrix Multiplication"),
        KernelEntry("savdf", rigidity.savdf, int(1.8 * MB),
                    "Structural Rigidity, AVDF kernel"),
        KernelEntry("savif", rigidity.savif, int(2.2 * MB),
                    "Structural Rigidity, AVIF kernel"),
        KernelEntry("sus", rigidity.sus, 11 * MB,
                    "Structural Rigidity, US kernel"),
        KernelEntry("svd", dense.svd, int(1.6 * MB),
                    "Singular Value Decomposition, Jacobi method"),
        KernelEntry("svm", svm_mod.svm, 16 * MB,
                    "Pattern Recognition for Face Recognition"),
    ]
}

#: Workloads the paper calls out as improving dramatically with capacity.
CAPACITY_SENSITIVE = ("gauss", "pcg", "smvm", "strans", "sus", "svm")


def kernel_names() -> List[str]:
    """All registered kernel names, in Table 1 order."""
    return list(KERNELS)


def get_kernel(name: str) -> KernelEntry:
    """Look up a kernel by name."""
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown RMS kernel {name!r}; known: {kernel_names()}"
        ) from None


def default_params(name: str, scale: int = 1) -> KernelParams:
    """Default :class:`KernelParams` for a kernel at a given scale."""
    return KernelParams(
        footprint_bytes=get_kernel(name).default_footprint, scale=scale
    )
