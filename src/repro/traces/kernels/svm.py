"""The svm RMS workload: pattern recognition for face recognition.

Table 1's ``Svm`` is an SVM-based face recognizer.  Classification of one
image evaluates the kernel function of the test feature vector against
every support vector — a full sequential scan of a support-vector array
that is far larger than the baseline cache, repeated per image, with a
small hot test vector.

This is the paper's headline Memory+Logic winner: at 4 MB the scan
streams from memory every image; once the stacked cache holds the whole
support-vector set, nearly every access hits — Figure 5 shows svm's CPMA
dropping by more than half at 32 MB.
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

#: Elements per feature vector (a 64-dim feature = one 512-byte vector).
FEATURE_DIM = 64


def svm(
    cpu: int, nthreads: int, params: KernelParams, draws: Draws
) -> Iterator[Block]:
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

    refresh = Pattern([(LOAD, 0, NO_REG, NO_REG)] * FEATURE_DIM)
    # One support vector: the dot-product loop, two elements per
    # iteration, then a store into the accumulator every eighth vector.
    scan = Pattern(
        [(LOAD, 1, NO_REG, NO_REG), (LOAD, 2, NO_REG, NO_REG)]
        * (FEATURE_DIM // 2)
        + [(STORE, 3, NO_REG, NO_REG)]
    )
    dims = np.arange(FEATURE_DIM)
    pairs = dims[::2]

    # Threads interleave support-vector chunks so both cpus walk the whole
    # shared set each image.
    while True:
        # One test image: refresh the (hot) test vector...
        yield refresh.block(test_vec.addr(dims)[None, :])
        # ...then scan every support vector.
        for s in scan.chunks(0, n_support):
            address = np.empty((len(s), scan.width), dtype=np.int64)
            address[:, 0:-1:2] = support.addr(s[:, None] * FEATURE_DIM + pairs)
            address[:, 1:-1:2] = test_vec.addr(pairs)
            address[:, -1] = accum.addr(s // 8)
            keep = np.ones(address.shape, dtype=bool)
            keep[:, -1] = s % 8 == 0
            yield scan.block(address, keep)
