"""Tests for the RPL6xx async/service-hygiene pass (flow-sensitive).

Fixtures distil the real service shapes: blocking calls reachable in
coroutines, jobstore state used stale across awaits, handler status
contracts, and exceptions escaping to an implicit 500.  The mutation
test injects a blocking call into the real server source and asserts
the pass catches it — the acceptance criterion for this family.
"""

import ast
import textwrap
from pathlib import Path

from repro.checks.diagnostics import PyFile
from repro.checks.engine import package_root, run_lint
from repro.checks.flow import asyncsafety

SRC = Path(package_root())


def pf_of(src, rel="service/server.py"):
    src = textwrap.dedent(src)
    return PyFile(rel=rel, module="fixture", tree=ast.parse(src),
                  lines=src.splitlines())


def codes(*pfs):
    return [d.code for d in asyncsafety.run(list(pfs))]


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

    def test_unreachable_blocking_call_is_ignored(self):
        # dead code after return never executes; reachability matters
        pf = pf_of("""
            import time

            async def go():
                return 1
                time.sleep(5)
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
        diags = asyncsafety.run([pf])
        assert [d.code for d in diags] == ["RPL601"]
        assert "time.sleep" in diags[0].message

    def test_blocking_in_sync_function_is_fine(self):
        pf = pf_of("""
            import time

            def worker():
                time.sleep(1.0)
        """)
        assert codes(pf) == []


class TestRPL602StaleJobstoreState:
    def test_mutation_after_await_without_revalidation(self):
        # the pre-fix Service._process shape: park on the breaker,
        # then mark the job running with the pre-sleep snapshot
        pf = pf_of("""
            import asyncio

            class Svc:
                async def process(self, fp):
                    job = self.jobs.get(fp)
                    if job is None or job.state != "queued":
                        return
                    while not self.breaker.allow(self.now()):
                        await asyncio.sleep(0.05)
                    self.jobs.mark_running(job)
        """)
        assert codes(pf) == ["RPL602"]

    def test_revalidated_after_await_is_clean(self):
        pf = pf_of("""
            import asyncio

            class Svc:
                async def process(self, fp):
                    job = self.jobs.get(fp)
                    if job is None or job.state != "queued":
                        return
                    while not self.breaker.allow(self.now()):
                        await asyncio.sleep(0.05)
                    if job.state != "queued":
                        return
                    self.jobs.mark_running(job)
        """)
        assert codes(pf) == []

    def test_get_or_create_tuple_binding_is_tracked(self):
        pf = pf_of("""
            import asyncio

            class Svc:
                async def submit(self, fp, payload):
                    job, created = self.jobs.get_or_create(fp, payload)
                    await self.queue.put(fp)
                    self.jobs.mark_requeued(job)
        """)
        assert codes(pf) == ["RPL602"]

    def test_state_read_counts_as_revalidation(self):
        pf = pf_of("""
            import asyncio

            class Svc:
                async def submit(self, fp, payload):
                    job = self.jobs.get(fp)
                    await self.queue.put(fp)
                    if job.state == "queued":
                        self.jobs.mark_requeued(job)
        """)
        assert codes(pf) == []

    def test_mutation_before_any_await_is_clean(self):
        pf = pf_of("""
            class Svc:
                async def submit(self, fp, payload):
                    job = self.jobs.get(fp)
                    self.jobs.mark_requeued(job)
                    await self.queue.put(fp)
        """)
        assert codes(pf) == []


class TestRPL603StatusContract:
    def test_unpinned_literal_status(self):
        pf = pf_of("""
            from repro.service.middleware import Request, Response

            def handle_x(app, request, now):
                if bad(request):
                    return Response(500, {"error": "boom"})
                return Response(200, {})
        """, rel="service/handlers.py")
        assert codes(pf) == ["RPL603"]

    def test_pinned_statuses_are_clean(self):
        pf = pf_of("""
            from repro.service.middleware import Request, Response

            def handle_x(app, request, now):
                if bad(request):
                    return Response(400, {"error": "bad"})
                if missing(request):
                    return Response(404, {})
                return Response(200, {})
        """, rel="service/handlers.py")
        assert codes(pf) == []

    def test_non_literal_status_is_flagged(self):
        pf = pf_of("""
            from repro.service.middleware import Response

            def handle_x(app, request, now):
                code = pick()
                return Response(code, {})
        """, rel="service/handlers.py")
        assert codes(pf) == ["RPL603"]

    def test_forwarder_checked_at_call_sites(self):
        shed = textwrap.dedent("""
            from repro.service.middleware import Request, Response

            def _shed(status, why):
                return Response(status, {"error": why})

            def handle_x(app, request, now):
                if busy(app):
                    return _shed(STATUS, "busy")
                return Response(200, {})
        """)
        clean = pf_of(shed.replace("STATUS", "503"),
                      rel="service/handlers.py")
        assert codes(clean) == []
        bad = pf_of(shed.replace("STATUS", "500"),
                    rel="service/handlers.py")
        assert codes(bad) == ["RPL603"]

    def test_handler_returning_non_response(self):
        pf = pf_of("""
            from repro.service.middleware import Response

            def handle_x(app, request, now):
                return {"ok": True}
        """, rel="service/handlers.py")
        assert codes(pf) == ["RPL603"]


class TestRPL604EscapingExceptions:
    def test_helper_escape_reaches_handler(self):
        pf = pf_of("""
            from repro.service.middleware import Response

            def _parse(request):
                if not request:
                    raise ValueError("bad")
                return request

            def handle_x(app, request, now):
                sub = _parse(request)
                return Response(200, sub)
        """, rel="service/handlers.py")
        assert codes(pf) == ["RPL604"]

    def test_caught_escape_is_clean(self):
        pf = pf_of("""
            from repro.service.middleware import Response

            def _parse(request):
                if not request:
                    raise ValueError("bad")
                return request

            def handle_x(app, request, now):
                try:
                    sub = _parse(request)
                except ValueError as exc:
                    return Response(400, {"error": str(exc)})
                return Response(200, sub)
        """, rel="service/handlers.py")
        assert codes(pf) == []

    def test_direct_raise_in_handler(self):
        pf = pf_of("""
            from repro.service.middleware import Response

            def handle_x(app, request, now):
                if not request:
                    raise ValueError("bad")
                return Response(200, {})
        """, rel="service/handlers.py")
        assert codes(pf) == ["RPL604"]


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
        found = [d for d in asyncsafety.run([mutant])
                 if d.code == "RPL601"]
        assert found, "injected blocking call went undetected"


class TestRealTreeAndExplanations:
    def test_shipped_service_is_clean(self):
        report = run_lint(select=["RPL6"])
        assert [d.render() for d in report.diagnostics] == []

    def test_explanations_cover_all_rpl6_codes(self):
        assert set(asyncsafety.EXPLANATIONS) == {
            "RPL601", "RPL602", "RPL603", "RPL604",
        }
        for code, exp in asyncsafety.EXPLANATIONS.items():
            rendered = exp.render()
            assert code in rendered
            assert "why:" in rendered
            assert "example violation:" in rendered
            assert "fix pattern:" in rendered


class TestEngineExplain:
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
