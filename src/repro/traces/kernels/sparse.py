"""Sparse linear-algebra RMS kernels: conj, pcg, sMVM, sSym, sTrans.

All five workloads walk synthetic CSR (compressed sparse row) matrices.
The distinguishing features are footprint and access pattern:

* ``conj`` — conjugate-gradient solver on a solids matrix small enough to
  fit the baseline 4 MB cache (flat CPMA in Figure 5).
* ``pcg`` — preconditioned CG with a red-black-reordered triangular solve
  (long dependent-load chains) over a ~18 MB footprint.
* ``smvm`` — plain sparse matrix-vector multiply streaming a ~20 MB matrix
  with random gathers into the source vector.
* ``ssym`` — symmetric sparse multiply storing only one triangle (~3 MB,
  fits the baseline cache).
* ``strans`` — transposed sparse multiply: streamed matrix with scattered
  read-modify-write updates of the destination vector (~24 MB).

Each kernel partitions rows between the two threads in contiguous chunks
(shared matrix, private vectors), as a data-parallel OpenMP-style RMS code
would.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.traces.kernels.base import (
    BLOCK_ROWS,
    Block,
    Draws,
    KernelParams,
    LOAD,
    NO_REG,
    Pattern,
    Region,
    STORE,
    SHARED_BASE,
    carve,
    private_base,
)

#: Non-zero entries per matrix row in the synthetic CSR structures.
NNZ_PER_ROW = 8

#: Rows handed to a thread at a time (OpenMP-style chunked partitioning).
ROW_CHUNK = 16

#: Registers: the row pointer, the column index, and the gathered
#: x, z and y values.
ROWP, COL, XVAL, ZVAL, YVAL = range(5)


def _csr_layout(params: KernelParams, value_fraction: float = 0.7):
    """Carve the shared CSR arrays (values, column indices, row pointers).

    *value_fraction* of the footprint goes to the 8-byte values; column
    indices are 4-byte and row pointers 4-byte.
    """
    nnz = max(NNZ_PER_ROW, params.elements(value_fraction))
    rows = max(2, nnz // NNZ_PER_ROW)
    base = SHARED_BASE
    vals, base = carve(base, 8, nnz)
    cols, base = carve(base, 4, nnz)
    rowp, base = carve(base, 4, rows + 1)
    return vals, cols, rowp, rows, base


def _thread_rows(pattern: Pattern, rows: int, nthreads: int, cpu: int,
                 parity: Optional[int] = None) -> Iterator[np.ndarray]:
    """This thread's rows, ascending, as arrays of about a block's rows.

    A thread owns every *nthreads*-th chunk of :data:`ROW_CHUNK` rows;
    *parity*, if given, keeps only the rows of that parity.
    """
    in_chunk = np.arange(ROW_CHUNK)
    if parity is not None:
        in_chunk = in_chunk[parity::2]
    n_chunks = -(-rows // ROW_CHUNK)
    span = max(1, BLOCK_ROWS // (pattern.width * len(in_chunk))) * nthreads
    for low in range(cpu, n_chunks, span):
        chunk = np.arange(low, min(low + span, n_chunks), nthreads)
        row = (chunk[:, None] * ROW_CHUNK + in_chunk).ravel()
        yield row[row < rows]


def _owns_rows(rows: int, cpu: int) -> bool:
    """Whether :func:`_thread_rows` gives *cpu* any row: a kernel whose
    cpu owns none ends at once rather than loop over nothing."""
    return cpu * ROW_CHUNK < rows


def _banded(row: np.ndarray, draws: Draws, band: int, per_row: int,
            rows: int) -> np.ndarray:
    """``per_row`` row indices drawn within +-band of each row, clipped
    to the matrix."""
    offsets = draws.below(2 * band + 1, len(row) * per_row) - band
    return np.clip(row[:, None] + offsets.reshape(-1, per_row), 0, rows - 1)


def _spmv_rows(
    cpu: int,
    nthreads: int,
    draws: Draws,
    vals: Region,
    cols: Region,
    rowp: Region,
    x: Region,
    y: Region,
    rows: int,
    band: int = 0,
) -> Iterator[Block]:
    """One y = A*x pass over this thread's share of the rows.

    The dependent-load chain per element is the one Section 2.1
    describes: the column-index load produces the address of the x-vector
    gather, which therefore depends on it.

    Args:
        band: If non-zero, the matrix is banded (typical of assembled FEM
            systems): gathers land within +-band rows of the diagonal, so
            they have strong temporal locality.  If zero, columns are
            spread over the whole vector (unstructured sparsity).
    """
    pattern = Pattern(
        [(LOAD, 0, NO_REG, ROWP)]
        + [(LOAD, 1, ROWP, COL), (LOAD, 2, ROWP, NO_REG),
           (LOAD, 3, COL, XVAL)] * NNZ_PER_ROW
        + [(STORE, 4, NO_REG, NO_REG)]
    )
    for row in _thread_rows(pattern, rows, nthreads, cpu):
        if band:
            gather = _banded(row, draws, band, NNZ_PER_ROW, rows)
        else:
            # Unstructured sparsity: spread over the whole vector but
            # with the mild clustering of real matrices (a random
            # cluster of columns per row).
            cluster = draws.below(4096, len(row) * NNZ_PER_ROW)
            gather = (row[:, None] * 97 + cluster.reshape(-1, NNZ_PER_ROW)
                      ) % x.count
        j = row[:, None] * NNZ_PER_ROW + np.arange(NNZ_PER_ROW)
        address = np.empty((len(row), pattern.width), dtype=np.int64)
        address[:, 0] = rowp.addr(row)
        address[:, 1:-1:3] = cols.addr(j)
        address[:, 2:-1:3] = vals.addr(j)
        address[:, 3:-1:3] = x.addr(gather)
        address[:, -1] = y.addr(row)
        yield pattern.block(address)


def _vector_axpy(x: Region, y: Region, n: int, site_base: int
                 ) -> Iterator[Block]:
    """y += a*x over a private vector pair (streaming, no dependencies)."""
    pattern = Pattern([
        (LOAD, site_base, NO_REG, NO_REG),
        (LOAD, site_base + 1, NO_REG, NO_REG),
        (STORE, site_base + 2, NO_REG, NO_REG),
    ])
    for i in pattern.chunks(0, n):
        y_addr = y.addr(i)
        yield pattern.block(np.stack((x.addr(i), y_addr, y_addr), axis=1))


def conj(
    cpu: int, nthreads: int, params: KernelParams, draws: Draws
) -> Iterator[Block]:
    """Conjugate Gradient Solver on solids ("Conj Solids", Table 1).

    Per iteration: one SpMV over the (small) solids matrix plus the CG
    vector updates (two axpy passes and a dot product).
    """
    vals, cols, rowp, rows, _ = _csr_layout(params)
    pbase = private_base(cpu)
    x, pbase = carve(pbase, 8, rows)
    y, pbase = carve(pbase, 8, rows)
    r, pbase = carve(pbase, 8, rows)
    p, pbase = carve(pbase, 8, rows)
    n = rows // nthreads
    while _owns_rows(rows, cpu) or n:
        # Solids matrices are assembled FEM systems: banded, so the
        # x-vector gathers stay near the diagonal (strong locality).
        yield from _spmv_rows(cpu, nthreads, draws, vals, cols, rowp, p, y,
                              rows, band=64)
        yield from _vector_axpy(y, r, n, 8)
        yield from _vector_axpy(r, p, n, 12)


def pcg(
    cpu: int, nthreads: int, params: KernelParams, draws: Draws
) -> Iterator[Block]:
    """Preconditioned CG with Cholesky preconditioner and red-black
    reordering ("pcg", Table 1).

    The triangular preconditioner solve is modeled as two half-sweeps
    (red rows then black rows); within a sweep each row's update gathers
    previously-solved neighbour values through an index load, giving the
    long dependent chains characteristic of triangular solves.
    """
    vals, cols, rowp, rows, _ = _csr_layout(params)
    pbase = private_base(cpu)
    x, pbase = carve(pbase, 8, rows)
    y, pbase = carve(pbase, 8, rows)
    z, pbase = carve(pbase, 8, rows)
    half = NNZ_PER_ROW // 2
    # The gather depends on the column index AND the value it reads was
    # produced earlier in the sweep: a true serial chain, so the loaded
    # value feeds the row's store address through ZVAL.
    sweep = Pattern(
        [(LOAD, 8, NO_REG, ROWP)]
        + [(LOAD, 9, ROWP, COL), (LOAD, 10, COL, ZVAL)] * half
        + [(STORE, 11, ZVAL, NO_REG)]
    )
    while _owns_rows(rows, cpu):
        # SpMV with the full matrix.
        yield from _spmv_rows(cpu, nthreads, draws, vals, cols, rowp, x, y,
                              rows)
        # Red-black preconditioner: two dependent half-sweeps.
        for colour in (0, 1):
            for row in _thread_rows(sweep, rows, nthreads, cpu, colour):
                # Red-black neighbours of row are nearby rows (the
                # reordering keeps the band structure).
                neighbour = _banded(row, draws, 512, half, rows)
                address = np.empty((len(row), sweep.width), dtype=np.int64)
                address[:, 0] = rowp.addr(row)
                address[:, 1:-1:2] = cols.addr(
                    row[:, None] * NNZ_PER_ROW + np.arange(half)
                )
                address[:, 2:-1:2] = z.addr(neighbour)
                address[:, -1] = z.addr(row)
                yield sweep.block(address)


def smvm(
    cpu: int, nthreads: int, params: KernelParams, draws: Draws
) -> Iterator[Block]:
    """Sparse Matrix Multiplication ("sMvm", Table 1): repeated y = A*x."""
    vals, cols, rowp, rows, _ = _csr_layout(params)
    pbase = private_base(cpu)
    # Shared source vector (both threads gather from it).
    x, _ = carve(SHARED_BASE + 0x4000_0000, 8, rows)
    y, pbase = carve(pbase, 8, rows)
    while _owns_rows(rows, cpu):
        # Real unstructured matrices still have strong column clustering
        # after bandwidth-reducing reordering; the gather window is far
        # larger than the L1 but page-local.
        yield from _spmv_rows(cpu, nthreads, draws, vals, cols, rowp, x, y,
                              rows, band=4096)


def ssym(
    cpu: int, nthreads: int, params: KernelParams, draws: Draws
) -> Iterator[Block]:
    """Symmetrical Sparse Matrix Multiplication ("sSym", Table 1).

    Stores one triangle only (half the values), so each element updates
    both y[row] and y[col]; the footprint fits the baseline cache.
    """
    vals, cols, rowp, rows, _ = _csr_layout(params)
    pbase = private_base(cpu)
    x, pbase = carve(pbase, 8, rows)
    y, pbase = carve(pbase, 8, rows)
    half = NNZ_PER_ROW // 2
    # Symmetric update: each element scatters into y[col] as well as
    # y[row].
    pattern = Pattern(
        [(LOAD, 0, NO_REG, ROWP)]
        + [(LOAD, 1, ROWP, COL), (LOAD, 2, ROWP, NO_REG),
           (LOAD, 3, COL, NO_REG), (LOAD, 4, COL, NO_REG),
           (STORE, 5, COL, NO_REG)] * half
        + [(STORE, 6, NO_REG, NO_REG)]
    )
    while _owns_rows(rows, cpu):
        for row in _thread_rows(pattern, rows, nthreads, cpu):
            # The stored triangle of an assembled symmetric system is
            # banded: gathers and the symmetric scatter stay near the
            # diagonal.
            gather = _banded(row, draws, 64, half, rows)
            j = row[:, None] * half + np.arange(half)
            address = np.empty((len(row), pattern.width), dtype=np.int64)
            address[:, 0] = rowp.addr(row)
            address[:, 1:-1:5] = cols.addr(j)
            address[:, 2:-1:5] = vals.addr(j)
            address[:, 3:-1:5] = x.addr(gather)
            address[:, 4:-1:5] = address[:, 5:-1:5] = y.addr(gather)
            address[:, -1] = y.addr(row)
            yield pattern.block(address)


def strans(
    cpu: int, nthreads: int, params: KernelParams, draws: Draws
) -> Iterator[Block]:
    """Transposed Sparse Matrix Multiplication ("sTrans", Table 1).

    y[col] += val * x[row]: the matrix streams through, but every element
    performs a dependent read-modify-write scatter into the destination
    vector.
    """
    vals, cols, rowp, rows, _ = _csr_layout(params)
    pbase = private_base(cpu)
    x, pbase = carve(pbase, 8, rows)
    y, pbase = carve(pbase, 8, rows)
    pattern = Pattern(
        [(LOAD, 0, NO_REG, ROWP), (LOAD, 1, NO_REG, NO_REG)]
        + [(LOAD, 2, ROWP, COL), (LOAD, 3, ROWP, NO_REG),
           (LOAD, 4, COL, YVAL), (STORE, 5, YVAL, NO_REG)] * NNZ_PER_ROW
    )
    while _owns_rows(rows, cpu):
        for row in _thread_rows(pattern, rows, nthreads, cpu):
            # A transposed banded matrix scatters near the diagonal; the
            # window is far larger than the L1 but page-local in the DRAM
            # sense.
            scatter = y.addr(_banded(row, draws, 2048, NNZ_PER_ROW, rows))
            j = row[:, None] * NNZ_PER_ROW + np.arange(NNZ_PER_ROW)
            address = np.empty((len(row), pattern.width), dtype=np.int64)
            address[:, 0] = rowp.addr(row)
            address[:, 1] = x.addr(row)
            address[:, 2::4] = cols.addr(j)
            address[:, 3::4] = vals.addr(j)
            address[:, 4::4] = scatter
            address[:, 5::4] = scatter
            yield pattern.block(address)
