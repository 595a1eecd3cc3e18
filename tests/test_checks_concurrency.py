"""Tests for the RPL5xx concurrency-discipline pass (flow-sensitive).

Fixture modules are tiny distillations of the real runner shapes the
pass exists to police: lease claim/release pairing, journal appends
under lease custody, subprocess/socket lifetimes, explicit clocks.
The mutation tests then take the *real* scheduler/node sources, break
them the way a careless edit would, and assert the pass catches each
injected violation with the expected code.
"""

import ast
import textwrap
from pathlib import Path

from repro.checks.diagnostics import PyFile
from repro.checks.engine import package_root, run_lint
from repro.checks.flow import concurrency

SRC = Path(package_root())


def pf_of(src, rel="runner/mod.py"):
    src = textwrap.dedent(src)
    return PyFile(rel=rel, module="fixture", tree=ast.parse(src),
                  lines=src.splitlines())


def codes(*pfs):
    return [d.code for d in concurrency.run(list(pfs))]


class TestRPL501Leases:
    def test_leak_on_exception_path(self):
        pf = pf_of("""
            def dispatch(leases, fp, ex, now):
                lease = leases.claim(fp, "t", ex, 1, now)
                try:
                    send(ex, fp)
                except OSError:
                    return False
                leases.release(fp)
                return True
        """)
        assert codes(pf) == ["RPL501"]

    def test_release_in_finally_is_clean(self):
        pf = pf_of("""
            def dispatch(leases, fp, ex, now):
                lease = leases.claim(fp, "t", ex, 1, now)
                try:
                    send(ex, fp)
                finally:
                    leases.release(fp)
                return True
        """)
        assert codes(pf) == []

    def test_returning_the_lease_transfers_custody(self):
        pf = pf_of("""
            def acquire(leases, fp, ex, now):
                lease = leases.claim(fp, "t", ex, 1, now)
                return lease
        """)
        assert codes(pf) == []

    def test_self_claim_needs_class_level_discharge(self):
        pf = pf_of("""
            class Sched:
                def grab(self, fp, now):
                    self._leases.claim(fp, "t", "e", 1, now)
        """)
        assert codes(pf) == ["RPL501"]

    def test_self_claim_with_sibling_release_is_clean(self):
        pf = pf_of("""
            class Sched:
                def grab(self, fp, now):
                    self._leases.claim(fp, "t", "e", 1, now)
                def drop(self, fp):
                    self._leases.release(fp)
        """)
        assert codes(pf) == []

    def test_local_leasetable_ctor_is_recognised(self):
        pf = pf_of("""
            from repro.runner.lease import LeaseTable

            def run(fp, now):
                table = LeaseTable(5.0)
                table.claim(fp, "t", "e", 1, now)
        """)
        assert codes(pf) == ["RPL501"]

    def test_non_runner_files_are_out_of_scope(self):
        pf = pf_of("""
            class Sched:
                def grab(self, fp, now):
                    self._leases.claim(fp, "t", "e", 1, now)
        """, rel="thermal/solver.py")
        assert codes(pf) == []


class TestRPL502JournalDiscipline:
    DUPLICATE_BRANCH = """
        class Sched:
            def __init__(self):
                self._journal = Journal("p")
                self._leases = LeaseTable(5.0)
            def on_outcome(self, executor_id, outcome):
                fp = outcome["fp"]
                if fp in self._done:
                    {first}
                    {second}
                    return
                self._leases.release(fp)
                self._journal.append({{"ok": fp}})
    """

    def test_append_before_lease_touch_is_flagged(self):
        pf = pf_of(self.DUPLICATE_BRANCH.format(
            first='self._journal.append({"dup": fp})',
            second='self._leases.release(fp, executor_id)',
        ))
        assert codes(pf) == ["RPL502"]

    def test_release_before_append_is_clean(self):
        pf = pf_of(self.DUPLICATE_BRANCH.format(
            first='self._leases.release(fp, executor_id)',
            second='self._journal.append({"dup": fp})',
        ))
        assert codes(pf) == []

    def test_lease_param_seeds_custody(self):
        pf = pf_of("""
            class Sched:
                def __init__(self):
                    self._journal = Journal("p")
                    self._leases = LeaseTable(5.0)
                def reclaim(self, lease, why):
                    self._journal.append({"requeue": why})
        """)
        assert codes(pf) == []

    def test_journal_only_class_is_exempt(self):
        pf = pf_of("""
            class Audit:
                def __init__(self):
                    self._journal = Journal("p")
                def note(self, what):
                    self._journal.append({"note": what})
        """)
        assert codes(pf) == []


class TestRPL503Resources:
    def test_subprocess_leak_on_exception_path(self):
        pf = pf_of("""
            import subprocess

            def launch(cmd):
                proc = subprocess.Popen(cmd)
                try:
                    wait_ready()
                except TimeoutError:
                    return None
                return proc
        """)
        assert codes(pf) == ["RPL503"]

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
        # the pre-fix repro.runner.node.Node shape: socket stored on
        # self in __init__, no close anywhere in the class
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

    def test_scheduler_journal_swap_triggers_rpl502(self):
        # Appends are funneled through _journal_append (which also
        # notifies the event hook); the pass treats funnel calls as
        # appends at the call site, so swapping the duplicate branch's
        # release below the append is still caught.
        text = (SRC / "runner" / "scheduler.py").read_text()
        fixed = (
            "            self._leases.release(fingerprint, executor_id)\n"
            "            self._journal_append(self._entry(\n"
            "                outcome, executor_id, final=False, "
            "duplicate=True,\n"
            "            ))\n"
        )
        broken = (
            "            self._journal_append(self._entry(\n"
            "                outcome, executor_id, final=False, "
            "duplicate=True,\n"
            "            ))\n"
            "            self._leases.release(fingerprint, executor_id)\n"
        )
        assert fixed in text, "scheduler duplicate branch moved; update test"
        mutant = self._pf_from_source(
            "runner/scheduler.py", text.replace(fixed, broken)
        )
        assert "RPL502" in codes(mutant)

    def test_node_without_close_triggers_rpl503(self):
        text = (SRC / "runner" / "node.py").read_text()
        assert "self.sock.close()" in text, "node close moved; update test"
        mutant = self._pf_from_source(
            "runner/node.py", text.replace("self.sock.close()", "pass")
        )
        assert "RPL503" in codes(mutant)

    def test_lease_leak_injected_into_fixture_module(self):
        clean = pf_of("""
            def dispatch(leases, fp, ex, now):
                lease = leases.claim(fp, "t", ex, 1, now)
                try:
                    send(ex, fp)
                finally:
                    leases.release(fp)
        """)
        assert codes(clean) == []
        leaky_src = textwrap.dedent("""
            def dispatch(leases, fp, ex, now):
                lease = leases.claim(fp, "t", ex, 1, now)
                try:
                    send(ex, fp)
                finally:
                    log(fp)
        """)
        mutant = PyFile(rel="runner/mod.py", module="fixture",
                        tree=ast.parse(leaky_src),
                        lines=leaky_src.splitlines())
        assert codes(mutant) == ["RPL501"]


class TestRealTreeAndExplanations:
    def test_shipped_runner_is_clean(self):
        report = run_lint(select=["RPL5"])
        assert [d.render() for d in report.diagnostics] == []

    def test_explanations_cover_all_rpl5_codes(self):
        assert set(concurrency.EXPLANATIONS) == {
            "RPL501", "RPL502", "RPL503", "RPL504",
        }
        for code, exp in concurrency.EXPLANATIONS.items():
            rendered = exp.render()
            assert code in rendered
            assert "why:" in rendered
            assert "example violation:" in rendered
            assert "fix pattern:" in rendered
