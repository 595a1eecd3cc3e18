"""Unit tests for the RPL1xx determinism pass."""

import ast
import textwrap

from repro.checks import determinism
from repro.checks.diagnostics import PyFile


def make_file(source, rel="pkg/mod.py", module="repro.pkg.mod"):
    source = textwrap.dedent(source)
    return PyFile(
        rel=rel, module=module, tree=ast.parse(source),
        lines=source.splitlines(),
    )


def codes(diags):
    return [d.code for d in diags]


class TestUnseededConstruction:
    def test_random_Random_no_seed_is_rpl101(self):
        diags = determinism.check_file(make_file("""
            import random
            rng = random.Random()
        """))
        assert codes(diags) == ["RPL101"]
        assert "without a seed" in diags[0].message

    def test_seeded_Random_is_clean(self):
        diags = determinism.check_file(make_file("""
            import random
            rng = random.Random(42)
            rng2 = random.Random(f"stable-{42}")
        """))
        assert diags == []

    def test_from_import_Random_unseeded(self):
        diags = determinism.check_file(make_file("""
            from random import Random
            rng = Random()
        """))
        assert codes(diags) == ["RPL101"]

    def test_aliased_module(self):
        diags = determinism.check_file(make_file("""
            import random as rnd
            rng = rnd.Random()
        """))
        assert codes(diags) == ["RPL101"]

    def test_numpy_default_rng_unseeded(self):
        diags = determinism.check_file(make_file("""
            import numpy as np
            rng = np.random.default_rng()
        """))
        assert codes(diags) == ["RPL101"]

    def test_numpy_default_rng_seeded_is_clean(self):
        diags = determinism.check_file(make_file("""
            import numpy as np
            rng = np.random.default_rng(7)
        """))
        assert diags == []


class TestGlobalGeneratorCalls:
    def test_module_level_random_calls(self):
        diags = determinism.check_file(make_file("""
            import random
            x = random.random()
            y = random.randint(0, 5)
            random.seed(3)
        """))
        assert codes(diags) == ["RPL102", "RPL102", "RPL102"]

    def test_from_imported_function(self):
        diags = determinism.check_file(make_file("""
            from random import gauss
            x = gauss(0.0, 1.0)
        """))
        assert codes(diags) == ["RPL102"]

    def test_numpy_global_generator(self):
        diags = determinism.check_file(make_file("""
            import numpy as np
            np.random.seed(1)
            x = np.random.rand(4)
        """))
        assert codes(diags) == ["RPL102", "RPL102"]

    def test_instance_methods_are_clean(self):
        diags = determinism.check_file(make_file("""
            import random
            def kernel(rng: random.Random):
                return rng.random() + rng.gauss(0, 1)
        """))
        assert diags == []


class TestWallClock:
    def test_time_reads_flagged(self):
        diags = determinism.check_file(make_file("""
            import time
            t0 = time.time()
            t1 = time.perf_counter()
            t2 = time.monotonic()
        """))
        assert codes(diags) == ["RPL103", "RPL103", "RPL103"]

    def test_sleep_is_not_a_clock_read(self):
        diags = determinism.check_file(make_file("""
            import time
            time.sleep(0.1)
        """))
        assert diags == []

    def test_datetime_now_flagged(self):
        diags = determinism.check_file(make_file("""
            import datetime
            from datetime import datetime as dt
            a = datetime.datetime.now()
            b = dt.utcnow()
        """))
        assert codes(diags) == ["RPL103", "RPL103"]

    def test_from_import_perf_counter(self):
        diags = determinism.check_file(make_file("""
            from time import perf_counter
            t = perf_counter()
        """))
        assert codes(diags) == ["RPL103"]

    def test_allowlisted_file_may_read_clock(self):
        pf = make_file("""
            import time
            now = time.monotonic()
        """, rel="runner/worker.py", module="repro.runner.worker")
        assert determinism.check_file(pf) == []

    def test_allowlist_does_not_cover_rng(self):
        pf = make_file("""
            import random
            x = random.random()
        """, rel="runner/worker.py", module="repro.runner.worker")
        assert codes(determinism.check_file(pf)) == ["RPL102"]


class TestRunOverFiles:
    def test_run_aggregates_and_sorts_nothing_extra(self):
        clean = make_file("import math\nx = math.pi\n", rel="a.py",
                          module="repro.a")
        dirty = make_file("import random\nx = random.random()\n",
                          rel="b.py", module="repro.b")
        diags = determinism.run([clean, dirty])
        assert codes(diags) == ["RPL102"]
        assert diags[0].path == "b.py"
        assert diags[0].context == "x = random.random()"
