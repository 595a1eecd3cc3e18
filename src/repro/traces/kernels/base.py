"""Shared infrastructure for the synthetic RMS kernels.

A kernel is a function with the signature::

    def kernel(cpu, nthreads, params, draws) -> Iterator[Block]

returning an endless iterator of :data:`Block` column tuples
``(kind, address, site, read_reg, write_reg)``: int64 arrays of one
length, one row per memory instruction, at most :data:`BLOCK_ROWS` rows
(or one loop iteration, if that is longer):

* ``kind`` — 0 for load, 1 for store (values of
  :class:`repro.traces.record.AccessType`).
* ``address`` — byte address.
* ``site`` — small integer identifying the static instruction within the
  kernel; the trace generator maps it to a synthetic instruction pointer.
* ``read_reg`` — register read for *address computation* (a dependency
  on whichever earlier load wrote it), or :data:`NO_REG`.
* ``write_reg`` — register this load writes, or :data:`NO_REG`.

Registers are small non-negative ints, numbered per kernel module.
``draws`` is the cpu's :class:`Draws` stream.  A kernel vectorises its
loop nest by computing the addresses of many iterations at once as an
``(iterations, width)`` array and pairing it with a :class:`Pattern`,
the fixed other four columns of one iteration.

Kernels are infinite (they iterate their algorithm's outer loop forever);
the SMP interleaver truncates the merged stream at the requested record
count, mirroring the paper's fixed-length (1-billion-reference) traces.
The one exception is a cpu that owns no share of the work (more threads
than the kernel has rows to split): its iterator ends at once, and the
generator reports the kernel as ended, rather than looping over nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

#: kind, address, site, read_reg, write_reg columns of a run of records.
Block = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

LOAD = 0
STORE = 1

#: The register of an access that reads or writes none.
NO_REG = -1

#: Rows a kernel aims to put in one block.
BLOCK_ROWS = 2048

#: Base of the address region shared by all threads (matrices, models).
SHARED_BASE = 0x1000_0000

#: Spacing between per-thread private regions.
_PRIVATE_STRIDE = 0x1000_0000
_PRIVATE_BASE = 0x8000_0000


def private_base(cpu: int) -> int:
    """Base address of a cpu's private data region (vectors, temporaries)."""
    if cpu < 0:
        raise ValueError(f"cpu must be non-negative, got {cpu}")
    return _PRIVATE_BASE + cpu * _PRIVATE_STRIDE


@dataclass(frozen=True)
class KernelParams:
    """Sizing parameters for a kernel generator.

    Attributes:
        footprint_bytes: Target size of the kernel's primary shared data
            structure.  Each workload's default footprint determines where
            it lands on Figure 5's capacity axis (whether it fits in 4 MB,
            benefits at 12/32 MB, etc.).
        element_bytes: Size of one data element (8 for doubles).
        scale: Divisor applied to footprints by the experiment harness so
            scaled-down runs preserve the footprint/capacity ratios of the
            paper (see DESIGN.md).
    """

    footprint_bytes: int
    element_bytes: int = 8
    scale: int = 1

    def __post_init__(self) -> None:
        if self.footprint_bytes <= 0:
            raise ValueError("footprint_bytes must be positive")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")

    @property
    def effective_footprint(self) -> int:
        """Footprint after scaling, bytes."""
        return max(4096, self.footprint_bytes // self.scale)

    def elements(self, fraction: float = 1.0) -> int:
        """Number of elements filling *fraction* of the effective footprint."""
        count = int(self.effective_footprint * fraction) // self.element_bytes
        return max(16, count)


@dataclass(frozen=True)
class Region:
    """A contiguous array of fixed-size elements in the traced address space."""

    base: int
    element_bytes: int
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0 or self.element_bytes <= 0:
            raise ValueError("region must have positive size")

    def addr(self, index):
        """Byte address of element *index*, an int or an int array
        (wrapping around the region)."""
        return self.base + (index % self.count) * self.element_bytes

    @property
    def size_bytes(self) -> int:
        return self.count * self.element_bytes

    @property
    def end(self) -> int:
        return self.base + self.size_bytes


def carve(base: int, element_bytes: int, count: int) -> Tuple[Region, int]:
    """Allocate a region at *base*; returns (region, next_free_base).

    The next base is rounded up to a 4 KB boundary so regions never share
    an OS page (keeps DRAM page behaviour of distinct structures distinct).
    """
    region = Region(base, element_bytes, count)
    next_base = (region.end + 0xFFF) & ~0xFFF
    return region, next_base


class Pattern:
    """The ``(kind, site, read_reg, write_reg)`` slots of one loop
    iteration, in issue order."""

    def __init__(self, slots: Sequence[Tuple[int, int, int, int]]) -> None:
        self.width = len(slots)
        self._columns = np.array(slots, dtype=np.int64).T

    def chunks(self, start: int, stop: int, stride: int = 1
               ) -> Iterator[np.ndarray]:
        """``range(start, stop, stride)``, one iteration each, as arrays
        of about a block's rows."""
        span = max(1, BLOCK_ROWS // self.width) * stride
        for low in range(start, stop, span):
            yield np.arange(low, min(low + span, stop), stride)

    def block(
        self, addresses: np.ndarray, keep: Optional[np.ndarray] = None
    ) -> Block:
        """The block of an ``(iterations, width)`` address array, row
        major; *keep*, of the same shape, drops the slots it is False at."""
        kind, site, read_reg, write_reg = np.tile(
            self._columns, len(addresses)
        )
        address = addresses.reshape(-1)
        if keep is None:
            return kind, address, site, read_reg, write_reg
        keep = keep.reshape(-1)
        return (kind[keep], address[keep], site[keep], read_reg[keep],
                write_reg[keep])


class Draws:
    """A seeded :class:`random.Random`'s ``_randbelow`` draws, decoded in
    numpy blocks.

    ``below(n, count)`` returns the next *count* values
    ``random.Random(seed)._randbelow(n)`` returns, so ``randint(a, b)`` is
    ``a + below(b - a + 1, 1)`` and ``randrange(n)`` is ``below(n, 1)``.
    CPython's ``_randbelow_with_getrandbits`` (3.9 to 3.12 at least)
    takes ``k = n.bit_length()`` and draws ``getrandbits(k)`` until the
    value is below *n*; for ``k <= 32`` that is one 32-bit Mersenne
    Twister word shifted right by ``32 - k``.  The words come in bulk
    from the same generator: ``getrandbits(32 * m)`` packs its next *m*
    words least significant first.  Words drawn but not yet consumed stay
    buffered in order, so calls with different *n* interleave exactly as
    the scalar calls would.
    """

    def __init__(self, seed: int) -> None:
        self._random = random.Random(seed)
        self._words = np.empty(0, dtype=np.uint32)

    def below(self, n: int, count: int) -> np.ndarray:
        """The next *count* draws uniform on ``[0, n)``, as int64."""
        k = n.bit_length()
        if not 0 < k <= 32:
            raise ValueError(f"bound must be in [1, 2**32), got {n}")
        words = self._words
        while True:
            values = words >> (32 - k)
            accepted = np.flatnonzero(values < n)
            missing = count - len(accepted)
            if missing <= 0:
                break
            # Each word is accepted with probability n / 2**k >= 1/2.
            extra = missing * (1 << k) // n + missing // 8 + 64
            fresh = self._random.getrandbits(32 * extra).to_bytes(
                4 * extra, "little"
            )
            words = np.concatenate(
                (words, np.frombuffer(fresh, dtype="<u4"))
            )
        if count == 0:
            self._words = words
            return np.empty(0, dtype=np.int64)
        self._words = words[accepted[count - 1] + 1:]
        return values[accepted[:count]].astype(np.int64)
