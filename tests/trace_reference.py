"""The per-record trace generator, kept as the reference for the block one.

:func:`reference_arrays` runs the original one-record-at-a-time path: each
kernel is a Python generator function yielding ``(kind, address, site,
read_reg, write_reg)`` tuples, drawing from :class:`random.Random`, and a
:class:`DependencyTracker` per cpu annotates dependencies while the SMP
interleaver merges the streams.  :class:`repro.traces.generator.TraceGenerator`
must produce byte-identical arrays; ``tests/test_traces_kernels.py`` and
the ``trace-gen/svd`` micro-benchmark compare against this module.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.traces.generator import TRACE_DTYPE, WorkloadSpec
from repro.traces.kernels.base import (
    KernelParams,
    LOAD,
    STORE,
    SHARED_BASE,
    carve,
    private_base,
)
from repro.traces.record import AccessType, NO_DEP

#: kind, address, site, read_reg, write_reg
Access = Tuple[int, int, int, Optional[str], Optional[str]]

#: Synthetic code region for instruction pointers, one page per kernel site.
_IP_BASE = 0x0040_0000


class DependencyTracker:
    """Tracks which trace record last produced each register's value.

    One tracker per simulated cpu/thread.  Kernel generators use symbolic
    register names (e.g. ``"row_ptr"``, ``"col_idx"``) for clarity.
    """

    def __init__(self) -> None:
        self._producer: Dict[str, int] = {}

    def produce(self, register: str, uid: int) -> None:
        """Record that *uid* (a load) wrote *register*."""
        if uid < 0:
            raise ValueError(f"uid must be non-negative, got {uid}")
        self._producer[register] = uid

    def dependency_on(self, register: Optional[str]) -> int:
        """Uid of the record that must complete before an access reading
        *register* for its address may issue, or ``NO_DEP``."""
        if register is None:
            return NO_DEP
        return self._producer.get(register, NO_DEP)

    def clear(self, register: str) -> None:
        """Forget a register (e.g. it was overwritten by an ALU result)."""
        self._producer.pop(register, None)

    def reset(self) -> None:
        """Forget all register state (e.g. at a kernel phase boundary)."""
        self._producer.clear()


# -- dense kernels ----------------------------------------------------------

def dsym(
    cpu: int, nthreads: int, params: KernelParams, rng: random.Random
) -> Iterator[Access]:
    """Dense Matrix Multiplication ("dSYM", Table 1), cache-blocked.

    C = A*B with square tiles; a thread owns alternating tile-rows of C.
    Within a tile-triple the same A and B tiles are re-walked once per
    inner row, producing the heavy short-range reuse of blocked GEMM.
    """
    # Micro-kernel tiles are L1-resident (32x32 doubles = 8 KB); the
    # footprint parameter sizes the *full matrices* the tiles stream from.
    tile_dim = 32
    matrix_elems = params.elements()
    n_tiles = max(2, int((matrix_elems // (tile_dim * tile_dim)) ** 0.5))
    base = SHARED_BASE
    a, base = carve(base, 8, tile_dim * tile_dim * n_tiles * n_tiles)
    b, base = carve(base, 8, tile_dim * tile_dim * n_tiles * n_tiles)
    c, _ = carve(private_base(cpu), 8, tile_dim * tile_dim * n_tiles)

    def tile_addr(region, ti: int, tj: int, i: int, j: int) -> int:
        tile_base = (ti * n_tiles + tj) * tile_dim * tile_dim
        return region.addr(tile_base + i * tile_dim + j)

    while cpu < n_tiles:  # a cpu that owns no tile-row ends at once
        for bi in range(n_tiles):
            if bi % nthreads != cpu:
                continue
            for bj in range(n_tiles):
                for bk in range(n_tiles):
                    # Multiply tile A[bi,bk] by tile B[bk,bj] into C[bi,bj].
                    # The B tile is re-walked for every i — the blocked
                    # reuse (captured by the L1) that keeps dSYM's CPMA
                    # flat across stacked-cache capacities.
                    for i in range(tile_dim):
                        for k in range(tile_dim):
                            yield (LOAD, tile_addr(a, bi, bk, i, k), 0, None, None)
                            yield (LOAD, tile_addr(b, bk, bj, k, (i + k) % tile_dim), 1, None, None)
                        yield (LOAD, tile_addr(c, 0, bj, i, i), 2, None, None)
                        yield (STORE, tile_addr(c, 0, bj, i, i), 3, None, None)


def gauss(
    cpu: int, nthreads: int, params: KernelParams, rng: random.Random
) -> Iterator[Access]:
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

    def elem(r: int, col: int) -> int:
        return mat.addr(r * dim + col)

    k = 0
    while True:
        pivot = k % dim
        # Load the pivot row once (it stays cached during the step).
        for j in range(dim):
            yield (LOAD, elem(pivot, j), 0, None, None)
        for row in range(dim):
            if row == pivot or row % nthreads != cpu:
                continue
            yield (LOAD, elem(row, pivot), 1, None, "mult")
            for j in range(dim):
                yield (LOAD, elem(row, j), 2, None, None)
                yield (LOAD, elem(pivot, j), 3, None, None)
                yield (STORE, elem(row, j), 4, "mult", None)
        k += 1


def svd(
    cpu: int, nthreads: int, params: KernelParams, rng: random.Random
) -> Iterator[Access]:
    """Singular Value Decomposition with the Jacobi method ("Svd").

    One-sided Jacobi: sweep over column pairs (i, j); each rotation
    streams both columns twice (dot products, then the rotation update).
    The matrix is small and cache-resident.
    """
    n_elems = params.elements()
    dim = max(8, int(n_elems ** 0.5))
    mat, _ = carve(SHARED_BASE, 8, dim * dim)

    def col_elem(col: int, r: int) -> int:
        # Column-major storage: one-sided Jacobi walks whole columns, so
        # the matrix is laid out to make those walks sequential.
        return mat.addr(col * dim + r)

    while cpu < dim - 1:  # a cpu that owns no column ends at once
        for i in range(dim - 1):
            if i % nthreads != cpu:
                continue
            for j in range(i + 1, dim):
                # Dot products a_i . a_j, a_i . a_i, a_j . a_j.
                for r in range(dim):
                    yield (LOAD, col_elem(i, r), 0, None, None)
                    yield (LOAD, col_elem(j, r), 1, None, None)
                # Apply the rotation to both columns.
                for r in range(dim):
                    yield (LOAD, col_elem(i, r), 2, None, None)
                    yield (LOAD, col_elem(j, r), 3, None, None)
                    yield (STORE, col_elem(i, r), 4, None, None)
                    yield (STORE, col_elem(j, r), 5, None, None)


# -- sparse kernels ---------------------------------------------------------

#: Non-zero entries per matrix row in the synthetic CSR structures.
NNZ_PER_ROW = 8

#: Rows handed to a thread at a time (OpenMP-style chunked partitioning).
ROW_CHUNK = 16


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


def _owns_rows(rows: int, cpu: int) -> bool:
    """Whether *cpu* owns any row chunk: a kernel whose cpu owns none
    ends at once rather than loop over nothing."""
    return cpu * ROW_CHUNK < rows


def _spmv_rows(
    cpu: int,
    nthreads: int,
    rng: random.Random,
    vals,
    cols,
    rowp,
    x,
    y,
    rows: int,
    site_base: int,
    band: int = 0,
) -> Iterator[Access]:
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
    for row in range(rows):
        if (row // ROW_CHUNK) % nthreads != cpu:
            continue
        yield (LOAD, rowp.addr(row), site_base, None, "rowp")
        for k in range(NNZ_PER_ROW):
            j = row * NNZ_PER_ROW + k
            yield (LOAD, cols.addr(j), site_base + 1, "rowp", "col")
            yield (LOAD, vals.addr(j), site_base + 2, "rowp", None)
            if band:
                gather = max(0, min(rows - 1, row + rng.randint(-band, band)))
            else:
                # Unstructured sparsity: spread over the whole vector but
                # with the mild clustering of real matrices (a random
                # cluster of columns per row).
                gather = (row * 97 + rng.randrange(4096)) % x.count
            yield (LOAD, x.addr(gather), site_base + 3, "col", "xval")
        yield (STORE, y.addr(row), site_base + 4, None, None)


def _vector_axpy(
    cpu: int, x, y, n: int, site_base: int
) -> Iterator[Access]:
    """y += a*x over a private vector pair (streaming, no dependencies).

    """
    for i in range(n):
        yield (LOAD, x.addr(i), site_base, None, None)
        yield (LOAD, y.addr(i), site_base + 1, None, None)
        yield (STORE, y.addr(i), site_base + 2, None, None)


def conj(
    cpu: int, nthreads: int, params: KernelParams, rng: random.Random
) -> Iterator[Access]:
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
        yield from _spmv_rows(cpu, nthreads, rng, vals, cols, rowp, p, y,
                              rows, 0, band=64)
        yield from _vector_axpy(cpu, y, r, n, 8)
        yield from _vector_axpy(cpu, r, p, n, 12)


def pcg(
    cpu: int, nthreads: int, params: KernelParams, rng: random.Random
) -> Iterator[Access]:
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
    while _owns_rows(rows, cpu):
        # SpMV with the full matrix.
        yield from _spmv_rows(cpu, nthreads, rng, vals, cols, rowp, x, y, rows, 0)
        # Red-black preconditioner: two dependent half-sweeps.
        for colour in (0, 1):
            for row in range(colour, rows, 2):
                if (row // ROW_CHUNK) % nthreads != cpu:
                    continue
                yield (LOAD, rowp.addr(row), 8, None, "rowp")
                for k in range(NNZ_PER_ROW // 2):
                    j = row * NNZ_PER_ROW + k
                    yield (LOAD, cols.addr(j), 9, "rowp", "col")
                    # Red-black neighbours of row are nearby rows (the
                    # reordering keeps the band structure).
                    neighbour = max(0, min(rows - 1,
                                           row + rng.randint(-512, 512)))
                    # The gather depends on the column index AND the value
                    # it reads was produced earlier in the sweep: a true
                    # serial chain, so make the loaded value feed the next
                    # address through "zval".
                    yield (LOAD, z.addr(neighbour), 10, "col", "zval")
                yield (STORE, z.addr(row), 11, "zval", None)


def smvm(
    cpu: int, nthreads: int, params: KernelParams, rng: random.Random
) -> Iterator[Access]:
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
        yield from _spmv_rows(cpu, nthreads, rng, vals, cols, rowp, x, y,
                              rows, 0, band=4096)


def ssym(
    cpu: int, nthreads: int, params: KernelParams, rng: random.Random
) -> Iterator[Access]:
    """Symmetrical Sparse Matrix Multiplication ("sSym", Table 1).

    Stores one triangle only (half the values), so each element updates
    both y[row] and y[col]; the footprint fits the baseline cache.
    """
    vals, cols, rowp, rows, _ = _csr_layout(params)
    pbase = private_base(cpu)
    x, pbase = carve(pbase, 8, rows)
    y, pbase = carve(pbase, 8, rows)
    while _owns_rows(rows, cpu):
        for row in range(rows):
            if (row // ROW_CHUNK) % nthreads != cpu:
                continue
            yield (LOAD, rowp.addr(row), 0, None, "rowp")
            for k in range(NNZ_PER_ROW // 2):
                j = row * (NNZ_PER_ROW // 2) + k
                yield (LOAD, cols.addr(j), 1, "rowp", "col")
                yield (LOAD, vals.addr(j), 2, "rowp", None)
                # The stored triangle of an assembled symmetric system is
                # banded: gathers and the symmetric scatter stay near the
                # diagonal.
                gather = max(0, min(rows - 1, row + rng.randint(-64, 64)))
                yield (LOAD, x.addr(gather), 3, "col", None)
                # Symmetric update: scatter into y[col] as well as y[row].
                yield (LOAD, y.addr(gather), 4, "col", None)
                yield (STORE, y.addr(gather), 5, "col", None)
            yield (STORE, y.addr(row), 6, None, None)


def strans(
    cpu: int, nthreads: int, params: KernelParams, rng: random.Random
) -> Iterator[Access]:
    """Transposed Sparse Matrix Multiplication ("sTrans", Table 1).

    y[col] += val * x[row]: the matrix streams through, but every element
    performs a dependent read-modify-write scatter into the destination
    vector.
    """
    vals, cols, rowp, rows, _ = _csr_layout(params)
    pbase = private_base(cpu)
    x, pbase = carve(pbase, 8, rows)
    y, pbase = carve(pbase, 8, rows)
    while _owns_rows(rows, cpu):
        for row in range(rows):
            if (row // ROW_CHUNK) % nthreads != cpu:
                continue
            yield (LOAD, rowp.addr(row), 0, None, "rowp")
            yield (LOAD, x.addr(row), 1, None, None)
            for k in range(NNZ_PER_ROW):
                j = row * NNZ_PER_ROW + k
                yield (LOAD, cols.addr(j), 2, "rowp", "col")
                yield (LOAD, vals.addr(j), 3, "rowp", None)
                # A transposed banded matrix scatters near the diagonal;
                # the window is far larger than the L1 but page-local in
                # the DRAM sense.
                scatter = max(0, min(rows - 1,
                                     row + rng.randint(-2048, 2048)))
                yield (LOAD, y.addr(scatter), 4, "col", "yval")
                yield (STORE, y.addr(scatter), 5, "yval", None)


# -- rigidity kernels -------------------------------------------------------

def _rigidity(
    cpu: int,
    nthreads: int,
    params: KernelParams,
    rng: random.Random,
    nodes_per_element: int,
) -> Iterator[Access]:
    """Common element-assembly loop shared by the three kernels."""
    # Footprint split: half to node data, a quarter each to connectivity
    # and the global stiffness structure.
    n_nodes = params.elements(0.5)
    n_elements = max(16, n_nodes // nodes_per_element)
    base = SHARED_BASE
    node_xyz, base = carve(base, 8, n_nodes)
    connect, base = carve(base, 4, n_elements * nodes_per_element)
    stiff, base = carve(base, 8, max(16, params.elements(0.25)))
    scratch, _ = carve(private_base(cpu), 8, 64)

    while cpu < n_elements:  # a cpu that owns no element ends at once
        for element in range(n_elements):
            if element % nthreads != cpu:
                continue
            # Real meshes are bandwidth-ordered: an element's nodes are
            # numbered close together, so the coordinate gathers cluster
            # around the element's own position in the node array.
            centre = (element * nodes_per_element) % n_nodes
            for n in range(nodes_per_element):
                idx = element * nodes_per_element + n
                yield (LOAD, connect.addr(idx), 0, None, "node_id")
                # Coordinate gather depends on the connectivity load.
                node = max(0, min(n_nodes - 1, centre + rng.randint(-32, 32)))
                yield (LOAD, node_xyz.addr(node), 1, "node_id", None)
            # Element-kernel arithmetic working set (registers + scratch).
            for s in range(4):
                yield (LOAD, scratch.addr(s), 2, None, None)
            # Scatter the element contribution into the global structure,
            # near the element's own rows (banded assembled system).
            centre_s = (element * nodes_per_element) % stiff.count
            target = max(0, min(stiff.count - 1, centre_s + rng.randint(-32, 32)))
            yield (LOAD, stiff.addr(target), 3, "node_id", None)
            yield (STORE, stiff.addr(target), 4, "node_id", None)


def savdf(
    cpu: int, nthreads: int, params: KernelParams, rng: random.Random
) -> Iterator[Access]:
    """Structural Rigidity Computation with the AVDF kernel ("sAVDF")."""
    return _rigidity(cpu, nthreads, params, rng, nodes_per_element=4)


def savif(
    cpu: int, nthreads: int, params: KernelParams, rng: random.Random
) -> Iterator[Access]:
    """Structural Rigidity Computation with the AVIF kernel ("sAVIF")."""
    return _rigidity(cpu, nthreads, params, rng, nodes_per_element=8)


def sus(
    cpu: int, nthreads: int, params: KernelParams, rng: random.Random
) -> Iterator[Access]:
    """Structural Rigidity Computation with the US kernel ("sUS").

    Same assembly structure, but the US variant's mesh footprint is set
    large (see the registry defaults), so the node-coordinate gathers miss
    the baseline cache and the workload gains from stacked capacity.
    """
    return _rigidity(cpu, nthreads, params, rng, nodes_per_element=6)


# -- svm -------------------------------------------------------------------

#: Elements per feature vector (a 64-dim feature = one 512-byte vector).
FEATURE_DIM = 64


def svm(
    cpu: int, nthreads: int, params: KernelParams, rng: random.Random
) -> Iterator[Access]:
    """Pattern Recognition Algorithm for Face Recognition ("Svm").

    Support vectors are shared between threads; each thread classifies its
    own stream of test images, accumulating kernel sums into a private
    accumulator.  Dot products have no address dependencies, so the scan
    is bandwidth-bound rather than latency-bound — big memory-level
    parallelism, throttled by the off-die bus in the 4 MB baseline.
    """
    sv_elems = params.elements(0.95)
    n_support = max(4, sv_elems // FEATURE_DIM)
    support, _ = carve(SHARED_BASE, 8, n_support * FEATURE_DIM)
    pbase = private_base(cpu)
    test_vec, pbase = carve(pbase, 8, FEATURE_DIM)
    accum, pbase = carve(pbase, 8, max(16, n_support // 8))

    # Threads interleave support-vector chunks so both cpus walk the whole
    # shared set each image.
    while True:
        # One test image: refresh the (hot) test vector...
        for d in range(FEATURE_DIM):
            yield (LOAD, test_vec.addr(d), 0, None, None)
        # ...then scan every support vector.
        for s in range(n_support):
            for d in range(0, FEATURE_DIM, 2):
                # The dot-product loop, two elements per iteration.
                yield (LOAD, support.addr(s * FEATURE_DIM + d), 1, None, None)
                yield (LOAD, test_vec.addr(d), 2, None, None)
            if s % 8 == 0:
                yield (STORE, accum.addr(s // 8), 3, None, None)


#: The twelve per-record kernels, by registry name.
REFERENCE_KERNELS = {
    "conj": conj, "dsym": dsym, "gauss": gauss, "pcg": pcg, "smvm": smvm,
    "ssym": ssym, "strans": strans, "savdf": savdf, "savif": savif,
    "sus": sus, "svd": svd, "svm": svm,
}


def reference_stream(
    spec: WorkloadSpec, scale: int = 1
) -> Iterator[Tuple[int, int, int, int, int, int]]:
    """Stream the merged trace as ``(uid, cpu, kind, address, ip,
    dep_uid)`` tuples, one record at a time."""
    params = spec.resolved_params(scale)
    master_rng = random.Random(spec.seed)
    threads: List[Iterator] = []
    trackers: List[DependencyTracker] = []
    for cpu in range(spec.n_threads):
        rng = random.Random(spec.seed + 1000 * (cpu + 1))
        threads.append(
            iter(REFERENCE_KERNELS[spec.name](cpu, spec.n_threads, params, rng))
        )
        trackers.append(DependencyTracker())

    ifetch_kind = int(AccessType.IFETCH)
    uid = 0
    while True:
        for cpu in range(spec.n_threads):
            # Small random burst per turn: SMP interleaving is not
            # perfectly alternating.
            burst = master_rng.randint(1, 4)
            for _ in range(burst):
                if uid >= spec.n_records:
                    return
                try:
                    kind, address, site, read_reg, write_reg = next(
                        threads[cpu]
                    )
                except StopIteration:
                    # Kernels loop forever; one that ends would
                    # shorten the trace under its warmup split.
                    raise RuntimeError(
                        f"kernel {spec.name!r} cpu {cpu} ended after "
                        f"{uid} of {spec.n_records} records"
                    ) from None
                tracker = trackers[cpu]
                ip = _IP_BASE + site * 4
                if (
                    spec.ifetch_every > 0
                    and uid % spec.ifetch_every == spec.ifetch_every - 1
                    and uid < spec.n_records - 1
                ):
                    # Fetch the instruction line feeding this site.
                    yield (uid, cpu, ifetch_kind, ip, ip, NO_DEP)
                    uid += 1
                dep = tracker.dependency_on(read_reg)
                row = (uid, cpu, int(kind), address, ip, dep)
                if write_reg is not None and kind == 0:
                    tracker.produce(write_reg, uid)
                yield row
                uid += 1


def reference_arrays(spec: WorkloadSpec, scale: int = 1) -> np.ndarray:
    """The whole trace of *spec* as a :data:`TRACE_DTYPE` array."""
    return np.array(list(reference_stream(spec, scale)), dtype=TRACE_DTYPE)
