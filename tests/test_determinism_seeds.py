"""Same-seed determinism: identical seeds must give identical artifacts.

These tests back the RPL1xx pass with executable evidence: every RNG in
the trace generator and the workload-suite synthesizer is plumbed from
an explicit seed, so repeating a run with the same seed reproduces the
exact trace bytes (and changing the seed does not).
"""

import hashlib

from repro.cli import _run_kwargs, build_parser
from repro.core.experiments import run_experiment
from repro.runner.tasks import select_tasks
from repro.traces.generator import TraceGenerator, WorkloadSpec
from repro.traces.record import write_trace
from repro.uarch.workloads import make_profile, workload_suite


def trace_fingerprint(records):
    digest = hashlib.sha256()
    for rec in records:
        digest.update(
            f"{rec.uid}|{rec.cpu}|{rec.kind.value}|{rec.address}|"
            f"{rec.ip}|{rec.dep_uid}".encode()
        )
    return digest.hexdigest()


class TestTraceSeeds:
    def test_same_seed_same_fingerprint(self):
        spec = WorkloadSpec("gauss", n_records=2000, seed=7)
        a = TraceGenerator(spec).records()
        b = TraceGenerator(spec).records()
        assert trace_fingerprint(a) == trace_fingerprint(b)

    def test_different_seed_different_fingerprint(self):
        a = TraceGenerator(WorkloadSpec("gauss", n_records=2000, seed=7))
        b = TraceGenerator(WorkloadSpec("gauss", n_records=2000, seed=8))
        assert trace_fingerprint(a.records()) != trace_fingerprint(
            b.records()
        )

    def test_same_seed_identical_on_disk(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            path = tmp_path / f"{run}.trace"
            spec = WorkloadSpec("smvm", n_records=1500, seed=11)
            write_trace(TraceGenerator(spec).records(), path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_every_kernel_is_seed_stable(self):
        from repro.traces.kernels.registry import KERNELS

        for name in KERNELS:
            spec = WorkloadSpec(name, n_records=600, seed=3)
            a = TraceGenerator(spec).records()
            b = TraceGenerator(spec).records()
            assert trace_fingerprint(a) == trace_fingerprint(b), name


class TestWorkloadSuiteSeeds:
    def test_suite_is_seed_stable(self):
        assert workload_suite(seed=5) == workload_suite(seed=5)

    def test_suite_varies_with_seed(self):
        assert workload_suite(seed=5) != workload_suite(seed=6)

    def test_profile_stable_across_calls(self):
        a = make_profile("specint", 3, seed=42)
        b = make_profile("specint", 3, seed=42)
        assert a == b


#: Figure 5 at test size: one kernel, 12 k records, four configs.
SMALL_FIGURE5 = dict(workloads=["conj"], scale=16, length_factor=0.02)


class TestExperimentSeed:
    """``seed`` is an experiment kwarg that reaches the trace generator."""

    def test_seed_changes_figure5(self):
        default = run_experiment("figure-5", **SMALL_FIGURE5)
        seeded = run_experiment("figure-5", seed=7, **SMALL_FIGURE5)
        assert default.ok and seeded.ok
        assert seeded.kwargs["seed"] == 7
        assert seeded.result["cpma"] != default.result["cpma"]
        assert seeded.fingerprint != default.fingerprint

    def test_default_seed_is_1234(self):
        default = run_experiment("figure-5", **SMALL_FIGURE5)
        pinned = run_experiment("figure-5", seed=1234, **SMALL_FIGURE5)
        assert pinned.result == default.result

    def test_cli_seed_zero_reaches_kwargs(self):
        parser = build_parser()
        for argv in (["run", "figure-5", "--seed", "0"],
                     ["sweep", "figure-*", "--seed", "0"]):
            assert _run_kwargs(parser.parse_args(argv)) == {"seed": 0}
        assert _run_kwargs(parser.parse_args(["run", "figure-5"])) == {}

    def test_every_sweep_task_carries_the_seed(self):
        args = build_parser().parse_args(["sweep", "--seed", "0"])
        tasks = select_tasks(args.experiments, kwargs=_run_kwargs(args))
        assert tasks and all(t.kwargs["seed"] == 0 for t in tasks)
