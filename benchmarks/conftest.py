"""Shared helper for the design-choice ablations in ``test_ablations.py``.

Each ablation flips one modeling decision and regenerates the affected
quantity.  The paper's own tables and figures are graded by
``python -m repro validate`` instead.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_ablations.py -q \\
        --benchmark-disable

Ablations use ``benchmark.pedantic(..., rounds=1)``: the runs are
deterministic, and a single round keeps the file to about a minute.
"""


def run_once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
