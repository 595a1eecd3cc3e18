"""Tests for the RMS kernel generators and the SMP trace generator."""

import dataclasses
import hashlib
import itertools
import re
import signal
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memory_on_logic import TRACE_PLAN
from repro.traces.generator import (
    TraceGenerator,
    WorkloadSpec,
    records_to_array,
)
from repro.traces.kernels.base import (
    BLOCK_ROWS,
    Draws,
    KernelParams,
    LOAD,
    NO_REG,
    Region,
    STORE,
    carve,
    private_base,
)
from repro.traces.kernels.registry import (
    CAPACITY_SENSITIVE,
    KERNELS,
    default_params,
    get_kernel,
    kernel_names,
)
from repro.traces.record import validate_trace
from tests.trace_reference import reference_arrays


class TestKernelParams:
    def test_effective_footprint_scales(self):
        params = KernelParams(footprint_bytes=1 << 20, scale=4)
        assert params.effective_footprint == (1 << 20) // 4

    def test_effective_footprint_floor(self):
        params = KernelParams(footprint_bytes=8192, scale=1000)
        assert params.effective_footprint == 4096

    def test_elements(self):
        params = KernelParams(footprint_bytes=8192, element_bytes=8)
        assert params.elements() == 1024
        assert params.elements(0.5) == 512

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            KernelParams(footprint_bytes=0)
        with pytest.raises(ValueError):
            KernelParams(footprint_bytes=1024, scale=0)


class TestRegion:
    def test_addressing(self):
        region = Region(0x1000, 8, 10)
        assert region.addr(0) == 0x1000
        assert region.addr(3) == 0x1018
        assert region.addr(10) == 0x1000  # wraps

    def test_size_and_end(self):
        region = Region(0x1000, 8, 10)
        assert region.size_bytes == 80
        assert region.end == 0x1050

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Region(0, 8, 0)

    def test_carve_aligns_to_pages(self):
        region, next_base = carve(0x1000, 8, 10)
        assert next_base % 0x1000 == 0
        assert next_base >= region.end

    def test_private_bases_disjoint(self):
        assert private_base(0) != private_base(1)
        with pytest.raises(ValueError):
            private_base(-1)


class TestRegistry:
    def test_all_twelve_workloads_present(self):
        # Table 1 has exactly twelve RMS workloads.
        assert len(kernel_names()) == 12
        for name in ("conj", "dsym", "gauss", "pcg", "smvm", "ssym",
                     "strans", "savdf", "savif", "sus", "svd", "svm"):
            assert name in KERNELS

    def test_capacity_sensitive_match_paper(self):
        # "gauss, pcg, sMVM, sTrans, sUS, and svm" (Section 3).
        assert set(CAPACITY_SENSITIVE) == {
            "gauss", "pcg", "smvm", "strans", "sus", "svm"
        }

    def test_capacity_sensitive_have_big_footprints(self):
        mb = 1 << 20
        for name in kernel_names():
            footprint = KERNELS[name].default_footprint
            if name in CAPACITY_SENSITIVE:
                assert footprint > 8 * mb, name
            else:
                assert footprint <= 4 * mb, name

    def test_get_kernel_unknown(self):
        with pytest.raises(KeyError, match="unknown RMS kernel"):
            get_kernel("quake3")

    def test_default_params(self):
        params = default_params("svm", scale=8)
        assert params.scale == 8
        assert params.footprint_bytes == KERNELS["svm"].default_footprint


class TestKernelStreams:
    @pytest.mark.parametrize("name", kernel_names())
    def test_kernel_yields_valid_accesses(self, name):
        entry = get_kernel(name)
        params = KernelParams(footprint_bytes=64 * 1024)
        blocks = entry.fn(0, 2, params, Draws(1))
        for block in itertools.islice(blocks, 5):
            kind, address, site, read_reg, write_reg = block
            assert all(c.dtype == np.int64 for c in block)
            assert len({len(c) for c in block}) == 1
            assert 0 < len(kind) <= BLOCK_ROWS
            assert set(kind.tolist()) <= {LOAD, STORE}
            assert (address >= 0).all()
            assert (site >= 0).all()
            assert (read_reg >= NO_REG).all()
            # Only loads write registers.
            assert (write_reg[kind == STORE] == NO_REG).all()

    @pytest.mark.parametrize("name", kernel_names())
    def test_threads_partition_but_share(self, name):
        # Both threads must touch the shared region; private regions must
        # not collide.
        spec = WorkloadSpec(name, n_records=4000, n_threads=2)
        recs0 = list(TraceGenerator(spec).records())
        shared0 = {r.address for r in recs0
                   if r.cpu == 0 and r.address < private_base(0)}
        shared1 = {r.address for r in recs0
                   if r.cpu == 1 and r.address < private_base(0)}
        private0 = {r.address for r in recs0
                    if r.cpu == 0 and r.address >= private_base(0)}
        private1 = {r.address for r in recs0
                    if r.cpu == 1 and r.address >= private_base(0)}
        assert shared0 and shared1  # both touch shared data
        assert not (private0 & private1)  # privates are disjoint

    def test_kernels_are_infinite(self):
        # Generators iterate their outer loop forever (interleaver cuts).
        spec = WorkloadSpec("svd", n_records=50_000)
        recs = list(TraceGenerator(spec).records())
        assert len(recs) == 50_000


class TestTraceGenerator:
    def test_trace_is_valid(self):
        spec = WorkloadSpec("smvm", n_records=5000)
        validate_trace(list(TraceGenerator(spec).records()))

    def test_deterministic_for_seed(self):
        spec = WorkloadSpec("pcg", n_records=2000, seed=42)
        a = list(TraceGenerator(spec).records())
        b = list(TraceGenerator(spec).records())
        assert a == b

    def test_different_seeds_differ(self):
        a = TraceGenerator(WorkloadSpec("pcg", n_records=2000, seed=42))
        b = TraceGenerator(WorkloadSpec("pcg", n_records=2000, seed=43))
        assert list(a.records()) != list(b.records())

    def test_uids_are_dense(self):
        spec = WorkloadSpec("conj", n_records=1000)
        records = list(TraceGenerator(spec).records())
        assert [r.uid for r in records] == list(range(1000))

    def test_both_cpus_emit(self):
        spec = WorkloadSpec("gauss", n_records=5000)
        records = list(TraceGenerator(spec).records())
        cpus = {r.cpu for r in records}
        assert cpus == {0, 1}

    def test_single_thread_supported(self):
        spec = WorkloadSpec("svm", n_records=1000, n_threads=1)
        records = list(TraceGenerator(spec).records())
        assert {r.cpu for r in records} == {0}

    def test_dependencies_reference_same_cpu(self):
        # The tracker is per-cpu, so dependencies stay within a thread.
        spec = WorkloadSpec("smvm", n_records=5000)
        records = list(TraceGenerator(spec).records())
        by_uid = {r.uid: r for r in records}
        deps = [r for r in records if r.has_dependency]
        assert deps, "smvm must produce dependent loads"
        for r in deps:
            assert by_uid[r.dep_uid].cpu == r.cpu

    def test_dependencies_point_to_loads(self):
        spec = WorkloadSpec("strans", n_records=5000)
        records = list(TraceGenerator(spec).records())
        by_uid = {r.uid: r for r in records}
        for r in records:
            if r.has_dependency:
                assert by_uid[r.dep_uid].is_load

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="svm", n_records=0)
        with pytest.raises(ValueError):
            WorkloadSpec(name="svm", n_threads=0)

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            TraceGenerator(WorkloadSpec(name="doom"))

    @given(n=st.integers(min_value=1, max_value=3000))
    @settings(max_examples=15, deadline=None)
    def test_exact_record_count_property(self, n):
        spec = WorkloadSpec("ssym", n_records=n)
        records = list(TraceGenerator(spec).records())
        assert len(records) == n
        validate_trace(records)

    def test_footprint_tracks_scale(self):
        # Larger scale -> smaller touched footprint for the same length.
        spec = WorkloadSpec("gauss", n_records=30_000)
        big = list(TraceGenerator(spec, scale=4).records())
        small = list(TraceGenerator(spec, scale=32).records())
        span_big = len({r.address >> 6 for r in big})
        span_small = len({r.address >> 6 for r in small})
        assert span_small < span_big


#: sha256 of ``arrays().tobytes()`` at seed 1234, 30 k records, scale 8
#: (little-endian int64 rows): any change to how a trace is generated
#: or packed moves one of these.
PINNED_TRACE_SHA256 = {
    "conj": "30898326662aeb9d233d065268a2d26dcd8bbe1db978b997704404dc9d63f650",
    "dsym": "ccc83542ceb79897a39c2d0df05313c9392fae48dad5ebbc5bfd6b661cfa503f",
    "gauss": "ec88609db9f141bc5d7bd97de367b79f259d7672454b82fcebe264a4f4992268",
    "pcg": "f389554ac65c71412b0ab81f89b9dc4d1658a9c5dd9bb0512a66fd6b391ea4a7",
    "smvm": "3dffbcb81904ad911b62186150935e315b88654d9571835e27927f980a3c9bad",
    "ssym": "5d7dfe6044d091ac58c9bc435bca333d7c2f37020f0dd8f606adcb087c074691",
    "strans": "9abc05e7a21f4680316a95120a1a214018c5d20cac1adb54abfebc55ff7b8842",
    "savdf": "40973a2730914c9bbab7e42c326fe947d4e3c5815c7675592599564be7b2b4cb",
    "savif": "1e3ea7b1da77c3325fe5567cf8e050c65165e6f0dd15081d3d5d3059cf705b11",
    "sus": "5ebe396a206aba7bf0b85abd9aaed146c2a34895821eb6cefd0f9a7cb709591d",
    "svd": "bc48a6fd7bafad555b96e582932adcac1d0680d4ef82147df4272cf5dca4d647",
    "svm": "24fd7186588f9bcaea957a06356f55b16249c2092e5e73f8f2c15ef397be8b77",
}
#: The same for smvm with one instruction fetch every third record.
PINNED_IFETCH_SHA256 = (
    "c78475cb45ab6058a5a64fa5bfb1c79eea2360e9951166ee58d9967074d85df4"
)


def _pinned_digest(name, **spec):
    spec = WorkloadSpec(name=name, n_records=30_000, seed=1234, **spec)
    array = TraceGenerator(spec, scale=8).arrays()
    return hashlib.sha256(array.tobytes()).hexdigest()


class TestTraceArrays:
    """The batch trace form: pinned bytes and bounded build memory."""

    @pytest.mark.skipif(sys.byteorder != "little", reason="pinned LE bytes")
    @pytest.mark.parametrize("name", sorted(PINNED_TRACE_SHA256))
    def test_bytes_are_pinned(self, name):
        assert _pinned_digest(name) == PINNED_TRACE_SHA256[name]

    @pytest.mark.skipif(sys.byteorder != "little", reason="pinned LE bytes")
    def test_ifetch_bytes_are_pinned(self):
        assert _pinned_digest("smvm", ifetch_every=3) == PINNED_IFETCH_SHA256

    def test_pins_cover_every_kernel(self):
        assert sorted(PINNED_TRACE_SHA256) == sorted(kernel_names())

    def test_build_memory_is_bounded(self):
        spec = WorkloadSpec(name="sus", n_records=200_000, seed=1234)
        generator = TraceGenerator(spec, scale=8)
        tracemalloc.start()
        try:
            array = generator.arrays()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(array) == 200_000
        assert peak <= 1.5 * array.nbytes

    def test_a_kernel_that_ends_raises(self):
        # One svd block holds a few thousand rows; each cpu needs more.
        spec = WorkloadSpec(name="svd", n_records=20_000)
        generator = TraceGenerator(spec, scale=8)
        endless = generator._entry.fn
        generator._entry = dataclasses.replace(
            generator._entry,
            fn=lambda *args: itertools.islice(endless(*args), 1),
        )
        with pytest.raises(RuntimeError, match="'svd' cpu . ended after"):
            generator.arrays()

    def test_records_unpack_arrays(self):
        generator = TraceGenerator(
            WorkloadSpec(name="pcg", n_records=3000, ifetch_every=3)
        )
        assert np.array_equal(
            records_to_array(generator.records()), generator.arrays()
        )


#: sha256 of ``arrays().tobytes()`` for every kernel at its full
#: ``TRACE_PLAN`` length (the Figure 5 study's traces), seed 1234, scale
#: 8, recorded from the per-record generator the block one replaced.
PINNED_PLAN_SHA256 = {
    "conj": "8eca357d9565d321028adbac6942c1d8eedd32cca03014886cb4a878d581bf9c",
    "dsym": "93ba455bcc0544160f1ad018ad2dca9f9c3dc7925bf91461b88808ee69e2afc6",
    "gauss": "b8696f7578ce778a9c1b2abd50e3344bc9686541df5b2f2ddff8ce63e4967320",
    "pcg": "62990938c250485502988bfdf3f99275c04583ab21ba68e70ca7ae6ea3ec0435",
    "smvm": "782233dad3b16ede6147da3954b1bf251647cff32e44f7d4d2b7e64836e10c94",
    "ssym": "660576e1139c2b68a922e9c04d4f1730b8205729cd6fafb818fb3eab20a2111d",
    "strans": "ac1d4c3f4d7e07a4b4f660187b179513075cfc48e253b56b2e90349a659de3f9",
    "savdf": "ed34eda4525710fa36ffb9ad59fa8e59cdcd231cedc726b4f5ad63ee54646d6a",
    "savif": "8507626c1971d565827712b33a5ccf71d249bef33839078a4effc8fee10a887d",
    "sus": "966daa0191643d74fc6d56364b0d6c38d77f89be80c81130cf66b14cfbaceadc",
    "svd": "eb0cfb69dcbf471e74d415b8f8a493034afe2b24a139a77463dd460e55e5dd86",
    "svm": "3a5330aeab93743bab71653ba23ea51d8c196e9d7368f95204389292c937311b",
}


class TestBlockGeneration:
    """The block generator against the per-record one it replaced."""

    @given(
        name=st.sampled_from(kernel_names()),
        seed=st.integers(min_value=0, max_value=2**40),
        n_threads=st.integers(min_value=1, max_value=3),
        ifetch_every=st.sampled_from([0, 1, 2, 3, 7]),
        scale=st.sampled_from([8, 64]),
        n_records=st.integers(min_value=1, max_value=5000),
    )
    @settings(max_examples=150, deadline=None)
    def test_arrays_match_the_per_record_reference(
        self, name, seed, n_threads, ifetch_every, scale, n_records
    ):
        spec = WorkloadSpec(name=name, n_records=n_records, seed=seed,
                            n_threads=n_threads, ifetch_every=ifetch_every)
        try:
            array = TraceGenerator(spec, scale=scale).arrays()
        except RuntimeError as error:
            # A cpu with no share of the work (dsym's third cpu at scale
            # 64) ends its kernel; the reference ends the same one.
            ended = re.escape(str(error).partition(" after ")[0])
            with pytest.raises(RuntimeError, match=ended):
                reference_arrays(spec, scale=scale)
            return
        expected = reference_arrays(spec, scale=scale)
        assert array.tobytes() == expected.tobytes()

    def test_a_cpu_without_work_ends_its_kernel(self):
        # At scale 64 dsym has two tile-rows, so a third cpu owns none:
        # its kernel must end, not loop over nothing.
        def spinning(signum, frame):
            raise TimeoutError("the kernel of a cpu without work spins")

        spec = WorkloadSpec("dsym", n_records=100, n_threads=3)
        previous = signal.signal(signal.SIGALRM, spinning)
        signal.alarm(10)
        try:
            with pytest.raises(
                RuntimeError,
                match="kernel 'dsym' cpu 2 ended after 0 records",
            ):
                TraceGenerator(spec, scale=64).arrays()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("name", kernel_names())
    def test_wrapped_loops_match_the_reference(self, name):
        # At scale 64 a cpu's pass over its share takes at most 61 k
        # records (strans), so 130 k records wrap every kernel's outer
        # loop on both cpus (gauss reaches its second pivot); odd fetches
        # stress the merge.
        spec = WorkloadSpec(name=name, n_records=130_000, seed=99,
                            ifetch_every=7)
        assert np.array_equal(TraceGenerator(spec, scale=64).arrays(),
                              reference_arrays(spec, scale=64))

    @pytest.mark.skipif(sys.byteorder != "little", reason="pinned LE bytes")
    @pytest.mark.parametrize("name", sorted(PINNED_PLAN_SHA256))
    def test_study_length_bytes_are_pinned(self, name):
        n_records = TRACE_PLAN[name][0]
        spec = WorkloadSpec(name=name, n_records=n_records, seed=1234)
        array = TraceGenerator(spec, scale=8).arrays()
        digest = hashlib.sha256(array.tobytes()).hexdigest()
        assert digest == PINNED_PLAN_SHA256[name]

    def test_draws_match_python_random(self):
        import random

        rng = random.Random(5)
        expected = [rng.randint(-512, 512) for _ in range(300)]
        expected += [rng.randrange(4096) for _ in range(300)]
        expected += [rng.randint(1, 4) for _ in range(300)]
        draws = Draws(5)
        got = np.concatenate((
            draws.below(1025, 300) - 512,
            draws.below(4096, 300),
            1 + draws.below(4, 300),
        ))
        assert got.tolist() == expected
        assert len(draws.below(7, 0)) == 0
        with pytest.raises(ValueError):
            draws.below(0, 1)
