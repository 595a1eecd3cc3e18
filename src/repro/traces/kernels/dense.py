"""Dense linear-algebra RMS kernels: dSym, gauss, svd.

* ``dsym`` — blocked dense matrix multiplication.  Its cache-blocked
  working set (three tiles) fits the baseline 4 MB cache, so its CPMA is
  flat across stacked-cache capacities even though the total matrices are
  large (the blocking captures the reuse).
* ``gauss`` — Gauss-Jordan elimination over a matrix far larger than the
  baseline cache.  Every pivot step re-streams the remaining matrix, so a
  stacked cache that holds the whole matrix converts the re-streams into
  hits: one of Figure 5's big winners.
* ``svd`` — one-sided Jacobi singular value decomposition over a small
  matrix: repeated column-pair rotations, cache-resident.

None of the three draws random numbers: their addresses are pure index
arithmetic.
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

#: gauss's register: the row multiplier every update of the row reads.
MULT = 0


def dsym(
    cpu: int, nthreads: int, params: KernelParams, draws: Draws
) -> Iterator[Block]:
    """Dense Matrix Multiplication ("dSYM", Table 1), cache-blocked.

    C = A*B with square tiles; a thread owns alternating tile-rows of C.
    Within a tile-triple the same A and B tiles are re-walked once per
    inner row, producing the heavy short-range reuse of blocked GEMM.
    """
    # Micro-kernel tiles are L1-resident (32x32 doubles = 8 KB); the
    # footprint parameter sizes the *full matrices* the tiles stream from.
    tile_dim = 32
    tile = tile_dim * tile_dim
    matrix_elems = params.elements()
    n_tiles = max(2, int((matrix_elems // tile) ** 0.5))
    base = SHARED_BASE
    a, base = carve(base, 8, tile * n_tiles * n_tiles)
    b, base = carve(base, 8, tile * n_tiles * n_tiles)
    c, _ = carve(private_base(cpu), 8, tile * n_tiles)

    # Multiply tile A[bi,bk] by tile B[bk,bj] into C[bi,bj], one inner
    # row i at a time: A[i, k] and B[k, (i + k) % 32] for every k, then
    # C[i, i] loaded and stored.  The B tile is re-walked for every i —
    # the blocked reuse (captured by the L1) that keeps dSYM's CPMA flat
    # across stacked-cache capacities.
    pattern = Pattern(
        [(LOAD, 0, NO_REG, NO_REG), (LOAD, 1, NO_REG, NO_REG)] * tile_dim
        + [(LOAD, 2, NO_REG, NO_REG), (STORE, 3, NO_REG, NO_REG)]
    )
    k = np.arange(tile_dim)
    # The (bj, bk) tile pairs in loop order.
    bj, bk = np.divmod(np.arange(n_tiles * n_tiles), n_tiles)
    while cpu < n_tiles:  # a cpu that owns no tile-row ends at once
        for bi in range(cpu, n_tiles, nthreads):
            for step in pattern.chunks(0, n_tiles * n_tiles * tile_dim):
                pair, i = np.divmod(step, tile_dim)
                a_tile = (bi * n_tiles + bk[pair]) * tile
                b_tile = (bk[pair] * n_tiles + bj[pair]) * tile
                i = i[:, None]
                address = np.empty((len(step), pattern.width), dtype=np.int64)
                address[:, 0:-2:2] = a.addr(a_tile[:, None] + i * tile_dim + k)
                address[:, 1:-2:2] = b.addr(
                    b_tile[:, None] + k * tile_dim + (i + k) % tile_dim
                )
                address[:, -2] = address[:, -1] = c.addr(
                    bj[pair] * tile + i[:, 0] * (tile_dim + 1)
                )
                yield pattern.block(address)


def gauss(
    cpu: int, nthreads: int, params: KernelParams, draws: Draws
) -> Iterator[Block]:
    """Linear Equation Solver using Gauss-Jordan Elimination ("gauss").

    Pivot step k: the pivot row is loaded (and stays hot), then every
    other row is streamed — load row element, load the multiplier column
    element, store the updated row element.  The full matrix is re-touched
    every step, so capacity beyond the matrix size converts the streaming
    into hits.
    """
    n_elems = params.elements()
    dim = max(8, int(n_elems ** 0.5))
    mat, _ = carve(SHARED_BASE, 8, dim * dim)
    columns = np.arange(dim)
    pivot_load = Pattern([(LOAD, 0, NO_REG, NO_REG)] * dim)
    update = Pattern(
        [(LOAD, 1, NO_REG, MULT)]
        + [(LOAD, 2, NO_REG, NO_REG), (LOAD, 3, NO_REG, NO_REG),
           (STORE, 4, MULT, NO_REG)] * dim
    )

    k = 0
    while True:
        pivot = k % dim
        # Load the pivot row once (it stays cached during the step).
        pivot_row = mat.addr(pivot * dim + columns)
        yield pivot_load.block(pivot_row[None, :])
        for row in update.chunks(cpu, dim, nthreads):
            row = row[row != pivot]
            row_elems = mat.addr(row[:, None] * dim + columns)
            address = np.empty((len(row), update.width), dtype=np.int64)
            address[:, 0] = mat.addr(row * dim + pivot)
            address[:, 1::3] = address[:, 3::3] = row_elems
            address[:, 2::3] = pivot_row
            yield update.block(address)
        k += 1


def svd(
    cpu: int, nthreads: int, params: KernelParams, draws: Draws
) -> Iterator[Block]:
    """Singular Value Decomposition with the Jacobi method ("Svd").

    One-sided Jacobi: sweep over column pairs (i, j); each rotation
    streams both columns twice (dot products, then the rotation update).
    The matrix is small and cache-resident.
    """
    n_elems = params.elements()
    dim = max(8, int(n_elems ** 0.5))
    # Column-major storage: one-sided Jacobi walks whole columns, so the
    # matrix is laid out to make those walks sequential.
    mat, _ = carve(SHARED_BASE, 8, dim * dim)
    r = np.arange(dim)
    # Per pair: the dot products a_i . a_j, a_i . a_i, a_j . a_j, then
    # the rotation applied to both columns.
    pattern = Pattern(
        [(LOAD, 0, NO_REG, NO_REG), (LOAD, 1, NO_REG, NO_REG)] * dim
        + [(LOAD, 2, NO_REG, NO_REG), (LOAD, 3, NO_REG, NO_REG),
           (STORE, 4, NO_REG, NO_REG), (STORE, 5, NO_REG, NO_REG)] * dim
    )
    while cpu < dim - 1:  # a cpu that owns no column ends at once
        for i in range(cpu, dim - 1, nthreads):
            col_i = mat.addr(i * dim + r)
            for j in pattern.chunks(i + 1, dim):
                col_j = mat.addr(j[:, None] * dim + r)
                address = np.empty((len(j), pattern.width), dtype=np.int64)
                dot = address[:, :2 * dim]
                rotate = address[:, 2 * dim:]
                dot[:, 0::2] = rotate[:, 0::4] = rotate[:, 2::4] = col_i
                dot[:, 1::2] = rotate[:, 1::4] = rotate[:, 3::4] = col_j
                yield pattern.block(address)
