"""Structural-rigidity RMS kernels: sAVDF, sAVIF, sUS (Table 1).

The three workloads are the same finite-element structural-rigidity
computation with different element kernels (AVDF, AVIF, US).  Each pass
walks the element list; per element it gathers the coordinates of its
nodes through the connectivity array (an indirect, dependency-carrying
access), performs the element-kernel arithmetic, and scatters the result
into the global stiffness structure.

The variants differ in mesh footprint and in how many nodes each element
kernel touches, which is what differentiates their Figure 5 behaviour:
AVDF and AVIF fit the baseline cache; US has a mesh large enough to
benefit from the stacked capacities.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.traces.kernels.base import (
    Block,
    Draws,
    KernelParams,
    LOAD,
    NO_REG,
    Pattern,
    STORE,
    SHARED_BASE,
    carve,
    private_base,
)

#: The register a connectivity load writes: the element's node id.
NODE_ID = 0

#: Half-width of the node and stiffness windows around an element.
_WINDOW = 32


def _rigidity(
    cpu: int,
    nthreads: int,
    params: KernelParams,
    draws: Draws,
    nodes_per_element: int,
) -> Iterator[Block]:
    """Common element-assembly loop shared by the three kernels."""
    # Footprint split: half to node data, a quarter each to connectivity
    # and the global stiffness structure.
    npe = nodes_per_element
    n_nodes = params.elements(0.5)
    n_elements = max(16, n_nodes // npe)
    base = SHARED_BASE
    node_xyz, base = carve(base, 8, n_nodes)
    connect, base = carve(base, 4, n_elements * npe)
    stiff, base = carve(base, 8, max(16, params.elements(0.25)))
    scratch, _ = carve(private_base(cpu), 8, 64)
    # Per element: each node's connectivity load, then the coordinate
    # gather that depends on it; the element-kernel arithmetic working
    # set (registers + scratch); the scatter into the global structure.
    pattern = Pattern(
        [(LOAD, 0, NO_REG, NODE_ID), (LOAD, 1, NODE_ID, NO_REG)] * npe
        + [(LOAD, 2, NO_REG, NO_REG)] * 4
        + [(LOAD, 3, NODE_ID, NO_REG), (STORE, 4, NODE_ID, NO_REG)]
    )
    while cpu < n_elements:  # a cpu that owns no element ends at once
        for element in pattern.chunks(cpu, n_elements, nthreads):
            count = len(element)
            # One draw per node gather, then one for the scatter.
            offsets = (
                draws.below(2 * _WINDOW + 1, count * (npe + 1))
                .reshape(count, npe + 1) - _WINDOW
            )
            first = element[:, None] * npe
            # Real meshes are bandwidth-ordered: an element's nodes are
            # numbered close together, so the coordinate gathers cluster
            # around the element's own position in the node array.
            node = np.clip(first % n_nodes + offsets[:, :npe], 0, n_nodes - 1)
            # The scatter lands near the element's own rows (banded
            # assembled system).
            target = np.clip(
                first[:, 0] % stiff.count + offsets[:, npe], 0, stiff.count - 1
            )
            address = np.empty((count, pattern.width), dtype=np.int64)
            address[:, 0:2 * npe:2] = connect.addr(first + np.arange(npe))
            address[:, 1:2 * npe:2] = node_xyz.addr(node)
            address[:, 2 * npe:2 * npe + 4] = scratch.addr(np.arange(4))
            address[:, -2] = address[:, -1] = stiff.addr(target)
            yield pattern.block(address)


def savdf(
    cpu: int, nthreads: int, params: KernelParams, draws: Draws
) -> Iterator[Block]:
    """Structural Rigidity Computation with the AVDF kernel ("sAVDF")."""
    return _rigidity(cpu, nthreads, params, draws, nodes_per_element=4)


def savif(
    cpu: int, nthreads: int, params: KernelParams, draws: Draws
) -> Iterator[Block]:
    """Structural Rigidity Computation with the AVIF kernel ("sAVIF")."""
    return _rigidity(cpu, nthreads, params, draws, nodes_per_element=8)


def sus(
    cpu: int, nthreads: int, params: KernelParams, draws: Draws
) -> Iterator[Block]:
    """Structural Rigidity Computation with the US kernel ("sUS").

    Same assembly structure, but the US variant's mesh footprint is set
    large (see the registry defaults), so the node-coordinate gathers miss
    the baseline cache and the workload gains from stacked capacity.
    """
    return _rigidity(cpu, nthreads, params, draws, nodes_per_element=6)
