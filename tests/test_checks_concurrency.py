"""Tests for RPL503 (resource close) and RPL504 (explicit clock).

Fixture modules are tiny distillations of the real runner shapes the
rules police: subprocess/socket/file lifetimes and explicit clocks.
The mutation test then takes the *real* journal source, breaks it the
way a careless edit would, and asserts RPL503 catches it.
"""

import ast
import textwrap
from pathlib import Path

from repro.checks import concurrency, determinism
from repro.checks.diagnostics import PyFile
from repro.checks.engine import package_root, run_lint

SRC = Path(package_root())


def pf_of(src, rel="runner/mod.py"):
    src = textwrap.dedent(src)
    return PyFile(rel=rel, module="fixture", tree=ast.parse(src),
                  lines=src.splitlines())


def codes(*pfs):
    diags = concurrency.run(list(pfs)) + determinism.run(list(pfs))
    return [d.code for d in diags if d.code.startswith("RPL5")]


class TestRPL503Resources:
    def test_kill_in_finally_is_clean(self):
        pf = pf_of("""
            import subprocess

            def launch(cmd):
                proc = subprocess.Popen(cmd)
                try:
                    wait_ready()
                finally:
                    proc.kill()
        """)
        assert codes(pf) == []

    def test_with_open_is_clean(self):
        pf = pf_of("""
            def read(path):
                with open(path) as fh:
                    return fh.read()
        """)
        assert codes(pf) == []

    def test_returning_the_handle_transfers_custody(self):
        pf = pf_of("""
            import socket

            def connect(port):
                sock = socket.create_connection(("127.0.0.1", port))
                return sock
        """)
        assert codes(pf) == []

    def test_self_attr_without_class_close(self):
        # a socket stored on self in __init__, no close anywhere in
        # the class
        pf = pf_of("""
            import socket

            class Node:
                def __init__(self, port):
                    self.sock = socket.create_connection(("h", port))
        """)
        assert codes(pf) == ["RPL503"]

    def test_self_attr_with_class_close_is_clean(self):
        pf = pf_of("""
            import socket

            class Node:
                def __init__(self, port):
                    self.sock = socket.create_connection(("h", port))
                def close(self):
                    self.sock.close()
        """)
        assert codes(pf) == []

    def test_unclosed_local_handle_is_flagged(self):
        pf = pf_of("""
            import subprocess

            def launch(cmd):
                proc = subprocess.Popen(cmd)
                wait_ready()
        """)
        assert codes(pf) == ["RPL503"]

    def test_discarded_creator_call_is_flagged(self):
        pf = pf_of("""
            import subprocess

            def fire(cmd):
                subprocess.Popen(cmd)
        """)
        assert codes(pf) == ["RPL503"]


class TestRPL504Clock:
    def test_ambient_clock_with_now_param(self):
        pf = pf_of("""
            import time

            def renew(self, executor_id, now):
                return time.monotonic() + 5.0
        """)
        assert codes(pf) == ["RPL504"]

    def test_allowlisted_service_file_still_flagged(self):
        # RPL103's allowlist does not excuse mixing the two clocks
        pf = pf_of("""
            from time import monotonic

            def expire(leases, now):
                return [l for l in leases if l.expires_at < monotonic()]
        """, rel="runner/scheduler.py")
        assert codes(pf) == ["RPL504"]

    def test_threaded_clock_is_clean(self):
        pf = pf_of("""
            def renew(self, executor_id, now):
                return now + 5.0
        """)
        assert codes(pf) == []

    def test_no_clock_param_no_opinion(self):
        # functions without an explicit clock parameter are RPL103's
        # territory (allowlisted ambient-clock call sites), not ours
        pf = pf_of("""
            import time

            def poll(self):
                return time.monotonic()
        """)
        assert codes(pf) == []


class TestMutationsOnRealSources:
    """Acceptance: injected violations are caught with the right code."""

    def _pf_from_source(self, rel, text):
        return PyFile(rel=rel, module="mutant", tree=ast.parse(text),
                      lines=text.splitlines())

    def test_journal_without_close_triggers_rpl503(self):
        text = (SRC / "runner" / "journal.py").read_text()
        assert "self._handle.close()" in text, (
            "journal close moved; update test"
        )
        mutant = self._pf_from_source(
            "runner/journal.py", text.replace("self._handle.close()", "pass")
        )
        assert "RPL503" in codes(mutant)


class TestRealTreeAndExplanations:
    def test_shipped_runner_is_clean(self):
        report = run_lint(select=["RPL5"])
        assert [d.render() for d in report.diagnostics] == []

    def test_explanations_cover_all_rpl5_codes(self):
        explanations = {
            code: exp
            for module in (concurrency, determinism)
            for code, exp in module.EXPLANATIONS.items()
            if code.startswith("RPL5")
        }
        assert set(explanations) == {"RPL503", "RPL504"}
        for code, exp in explanations.items():
            rendered = exp.render()
            assert code in rendered
            assert "why:" in rendered
            assert "example violation:" in rendered
            assert "fix pattern:" in rendered
