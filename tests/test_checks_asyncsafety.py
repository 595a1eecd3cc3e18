"""Tests for RPL601: blocking calls inside coroutines.

Fixtures distil the real service shapes: a blocking call in a
coroutine, directly or through same-file sync helpers.  The mutation
test injects a blocking call into the real server source and asserts
the rule catches it.  The engine's ``--explain`` table is checked here
too.
"""

import ast
import textwrap
from pathlib import Path

from repro.checks import concurrency
from repro.checks.diagnostics import PyFile
from repro.checks.engine import package_root, run_lint

SRC = Path(package_root())


def pf_of(src, rel="service/server.py"):
    src = textwrap.dedent(src)
    return PyFile(rel=rel, module="fixture", tree=ast.parse(src),
                  lines=src.splitlines())


def codes(*pfs):
    return [d.code for d in concurrency.run(list(pfs))]


class TestRPL601BlockingInAsync:
    def test_time_sleep_in_coroutine(self):
        pf = pf_of("""
            import time, asyncio

            async def tick():
                await asyncio.sleep(0.1)
                time.sleep(0.2)
        """)
        assert codes(pf) == ["RPL601"]

    def test_asyncio_sleep_is_clean(self):
        pf = pf_of("""
            import asyncio

            async def tick():
                await asyncio.sleep(0.1)
        """)
        assert codes(pf) == []

    def test_sync_helper_chain_is_traced(self):
        pf = pf_of("""
            import time

            def _spin():
                time.sleep(1.0)

            async def tick():
                _spin()
        """)
        diags = concurrency.run([pf])
        assert [d.code for d in diags] == ["RPL601"]
        assert "time.sleep" in diags[0].message

    def test_method_helper_chain_is_traced(self):
        pf = pf_of("""
            import os

            class Svc:
                def _flush(self, fd):
                    self._sync(fd)

                def _sync(self, fd):
                    os.fsync(fd)

                async def settle(self, fd):
                    self._flush(fd)
        """)
        diags = concurrency.run([pf])
        assert [d.code for d in diags] == ["RPL601"]
        assert "_flush -> _sync -> os.fsync" in diags[0].message

    def test_blocking_in_sync_function_is_fine(self):
        pf = pf_of("""
            import time

            def worker():
                time.sleep(1.0)
        """)
        assert codes(pf) == []


class TestMutationOnRealServer:
    """Acceptance: an injected blocking call in the real server source
    is caught by RPL601."""

    def test_injected_time_sleep_is_caught(self):
        text = (SRC / "service" / "server.py").read_text()
        anchor = "        self.jobs.mark_running(job)\n"
        assert anchor in text, "server dispatch moved; update test"
        mutant_text = text.replace(
            anchor, "        time.sleep(0.05)\n" + anchor, 1
        )
        mutant = PyFile(rel="service/server.py", module="mutant",
                        tree=ast.parse(mutant_text),
                        lines=mutant_text.splitlines())
        found = [d for d in concurrency.run([mutant])
                 if d.code == "RPL601"]
        assert found, "injected blocking call went undetected"


class TestRealTreeAndExplanations:
    def test_shipped_service_is_clean(self):
        report = run_lint(select=["RPL6"])
        assert [d.render() for d in report.diagnostics] == []

    def test_explanations_cover_all_rpl6_codes(self):
        rpl6 = {
            code: exp for code, exp in concurrency.EXPLANATIONS.items()
            if code.startswith("RPL6")
        }
        assert set(rpl6) == {"RPL601"}
        for code, exp in rpl6.items():
            rendered = exp.render()
            assert code in rendered
            assert "why:" in rendered
            assert "example violation:" in rendered
            assert "fix pattern:" in rendered


class TestEngineExplain:
    def test_retired_code_is_unknown(self, capsys):
        from argparse import Namespace

        from repro.checks.engine import main

        for code in ("RPL501", "RPL502", "RPL602", "RPL603", "RPL604"):
            assert main(Namespace(explain=code)) == 2
            assert f"unknown code {code!r}" in capsys.readouterr().out

    def test_every_registered_code_has_an_explanation(self):
        from repro.checks.diagnostics import CODES
        from repro.checks.engine import explain

        for code in CODES:
            exp = explain(code)
            assert exp is not None, f"no explanation for {code}"
            assert exp.code == code
            assert exp.title and exp.rationale and exp.fix

    def test_unknown_code_returns_none(self):
        from repro.checks.engine import explain

        assert explain("RPL999") is None
