"""Node process entry point: one executor owning a pool of workers.

``python -m repro.runner.node --connect PORT --node-id ID ...`` is what
the ``nodes:N`` backend (:mod:`repro.runner.backends.nodes`) spawns once
per node.  A node stands in for a remote machine: it dials the
scheduler's control socket on localhost, announces itself, and then

* accepts ``task`` messages and runs each spec in a crash-isolated
  worker subprocess (:class:`repro.runner.pool.WorkerPool` — the same
  supervision the local backend uses, one hop away);
* sends a ``heartbeat`` line every
  :data:`~repro.runner.worker.HEARTBEAT_EVERY_S` seconds, which
  the scheduler turns into lease renewals for everything this node has
  claimed;
* sends an ``outcome`` line per finished attempt.

Module-level imports are stdlib-only (the pool and the worker module
are too), so a node is as cheap to start as a worker.  The control
protocol is JSON lines, one object per line, in both directions:

* scheduler → node: ``{"type": "task", "spec": {...}, "timeout_s": t}``,
  ``{"type": "shutdown"}``
* node → scheduler: ``{"type": "hello", "node": id, "pid": p}``,
  ``{"type": "heartbeat", "node": id}``,
  ``{"type": "outcome", "node": id, "outcome": {...}}``

Chaos directives (``--chaos '{"mode": ...}'``, built from
:meth:`repro.resilience.faults.FaultInjector.executor_fault`) make the
node misbehave so failover tests can prove the scheduler survives it:

* ``executor-crash`` — ``os._exit`` the whole node the moment its first
  finished outcome is ready, *before* sending it: the worst case, where
  claimed-and-completed work is lost with the executor.
* ``partition`` — blackhole the control socket (no sends, no reads) for
  ``partition_s`` seconds after the first task arrives; finished
  outcomes queue up and flush when the partition heals, arriving after
  the scheduler has already reclaimed the leases — the
  duplicate-completion path.
* ``lease-stall`` — stop heartbeating forever while workers keep
  running and outcomes keep flowing.

(``duplicate-delivery`` is injected by the scheduler, which submits the
same assignment twice; no node cooperation needed.)
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from repro.runner.worker import HEARTBEAT_EVERY_S

#: Exit code for an injected executor crash (distinctive in logs).
EXECUTOR_CRASH_EXIT_CODE = 31


def _send(sock: socket.socket, message: Dict[str, Any]) -> None:
    sock.sendall((json.dumps(message) + "\n").encode("utf-8"))


class Node:
    """One node's control loop; see module docstring for the protocol."""

    def __init__(self, args: argparse.Namespace) -> None:
        # Deferred import keeps `--help` and arg errors socket-free.
        from repro.runner.pool import WorkerPool

        self.node_id: str = args.node_id
        self.max_workers: int = args.workers
        self.poll_interval_s: float = args.poll_interval
        self.chaos: Dict[str, Any] = (
            json.loads(args.chaos) if args.chaos else {}
        )
        scratch = args.scratch or tempfile.mkdtemp(
            prefix=f"repro-node-{self.node_id}-"
        )
        self.pool = WorkerPool(
            scratch=scratch,
            heartbeat_timeout_s=args.heartbeat_timeout,
        )
        self.sock = socket.create_connection(
            ("127.0.0.1", args.connect), timeout=10.0
        )
        self.sock.settimeout(0.0)  # non-blocking reads; sends are short
        self._read_buffer = b""
        self._queued: List[Dict[str, Any]] = []  # (spec, timeout) backlog
        self._partition_until: float = -1.0
        self._held: List[Dict[str, Any]] = []  # messages blackholed
        self._stalled = False
        self._saw_task = False
        self._next_beat = 0.0

    def close(self) -> None:
        """Release the control socket (idempotent).

        The OS would reclaim it at process exit, but an explicit close
        lets the scheduler see EOF immediately instead of waiting out
        a heartbeat timeout when the node exits cleanly.
        """
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close never fails on Linux
            pass

    # -- control-plane I/O ---------------------------------------------------

    def _partitioned(self, now: float) -> bool:
        return now < self._partition_until

    def _post(self, message: Dict[str, Any], now: float) -> None:
        """Send *message*, or hold it back while partitioned."""
        if self._partitioned(now):
            if message["type"] != "heartbeat":  # beats are lost, not queued
                self._held.append(message)
            return
        for held in self._held:
            _send(self.sock, held)
        self._held = []
        _send(self.sock, message)

    def _read_messages(self, now: float) -> List[Dict[str, Any]]:
        if self._partitioned(now):
            return []  # a blackhole drops both directions
        try:
            chunk = self.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return []
        except OSError:
            raise SystemExit(0) from None  # control socket gone: shut down
        if chunk == b"":
            raise SystemExit(0)  # scheduler closed the socket
        self._read_buffer += chunk
        messages = []
        while b"\n" in self._read_buffer:
            line, self._read_buffer = self._read_buffer.split(b"\n", 1)
            if line.strip():
                messages.append(json.loads(line.decode("utf-8")))
        return messages

    # -- main loop -----------------------------------------------------------

    def run(self) -> int:
        mode = self.chaos.get("mode")
        _send(self.sock, {
            "type": "hello",
            "node": self.node_id,
            "pid": os.getpid(),
            "workers": self.max_workers,
        })
        shutting_down = False
        while True:
            now = time.monotonic()
            for message in self._read_messages(now):
                if message.get("type") == "task":
                    self._saw_task = True
                    if mode == "partition" and self._partition_until < 0:
                        self._partition_until = now + float(
                            self.chaos.get("partition_s", 2.0)
                        )
                    self._queued.append(message)
                elif message.get("type") == "shutdown":
                    shutting_down = True

            while self._queued and self.pool.running < self.max_workers:
                task = self._queued.pop(0)
                self.pool.launch(
                    task["spec"], float(task.get("timeout_s", 300.0))
                )

            outcomes, _beats = self.pool.poll()
            for outcome in outcomes:
                if mode == "executor-crash":
                    # Die with completed-but-unreported work: the
                    # scheduler must reclaim the lease and re-run.
                    os._exit(EXECUTOR_CRASH_EXIT_CODE)
                self._post({
                    "type": "outcome",
                    "node": self.node_id,
                    "outcome": outcome,
                }, now)

            if mode == "lease-stall" and self._saw_task:
                self._stalled = True
            if now >= self._next_beat and not self._stalled:
                self._post({"type": "heartbeat", "node": self.node_id}, now)
                self._next_beat = now + HEARTBEAT_EVERY_S

            if shutting_down and not self._queued and not self.pool.running:
                return 0
            time.sleep(self.poll_interval_s)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.runner.node",
        description="campaign executor node (spawned by the nodes:N "
                    "backend; not for direct use)",
    )
    parser.add_argument("--connect", type=int, required=True,
                        help="scheduler control port on 127.0.0.1")
    parser.add_argument("--node-id", required=True)
    parser.add_argument("--workers", type=int, default=2,
                        help="max concurrent worker subprocesses")
    parser.add_argument("--heartbeat-timeout", type=float, default=10.0)
    parser.add_argument("--poll-interval", type=float, default=0.02)
    parser.add_argument("--scratch", default="")
    parser.add_argument("--chaos", default="",
                        help="JSON chaos directive (fault injection)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    node = Node(args)
    try:
        return node.run()
    finally:
        node.pool.kill_all(grace_s=0.2)
        node.close()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
