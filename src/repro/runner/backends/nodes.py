"""Multi-process socket backend: N node processes, each a worker pool.

``--backend nodes:N`` spawns N ``python -m repro.runner.node``
processes and drives them over a JSON-lines control socket on
localhost.  Each node owns its own pool of worker subprocesses, its own
scratch directory, and its own life: SIGKILL a node and the scheduler
side of this backend sees the socket close, reports the executor dead,
and the scheduler immediately reclaims its leases for surviving nodes
to steal — the stand-in for a host dropping out of a multi-host sweep.

The backend is mechanism only.  It forwards task specs, translates node
heartbeats into ``renew`` events and node outcomes into ``outcome``
events, and reports executor death exactly once.  What any of that
*means* (retry, reclaim, duplicate) is the scheduler's call.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.runner.backends import Assignment, BackendEvent, ExecutorBackend
from repro.runner.pool import kill_process

#: How long start() waits for every node to dial in and say hello.
CONNECT_TIMEOUT_S = 15.0


@dataclass
class _NodeState:
    """Scheduler-side view of one node process."""

    node_id: str
    proc: subprocess.Popen
    conn: Optional[socket.socket] = None
    read_buffer: bytes = b""
    outstanding: int = 0
    pid: int = 0
    dead: bool = False
    dead_reason: str = ""
    dead_reported: bool = False
    chaos: Dict[str, Any] = field(default_factory=dict)


class NodesBackend(ExecutorBackend):
    """N independent node processes behind one control socket."""

    def __init__(self, config: Any, n_nodes: int) -> None:
        self.name = f"nodes:{n_nodes}"
        self.config = config
        self.n_nodes = n_nodes
        self._server: Optional[socket.socket] = None
        self._nodes: Dict[str, _NodeState] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self, scratch: Path) -> None:
        scratch = Path(scratch)
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(self.n_nodes)
        server.settimeout(CONNECT_TIMEOUT_S)
        self._server = server
        port = server.getsockname()[1]

        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[3])
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
        injector = self.config.injector
        for i in range(self.n_nodes):
            node_id = f"node-{i}"
            chaos: Dict[str, Any] = {}
            if injector is not None:
                mode = injector.executor_fault(node_id)
                if mode is not None:
                    chaos = {"mode": mode}
                    if mode == "partition":
                        chaos["partition_s"] = 2.5 * self.config.lease_ttl_s
            node_scratch = scratch / node_id
            node_scratch.mkdir(parents=True, exist_ok=True)
            argv = [
                sys.executable, "-m", "repro.runner.node",
                "--connect", str(port),
                "--node-id", node_id,
                "--workers", str(self.config.workers),
                "--heartbeat-timeout", str(self.config.heartbeat_timeout_s),
                "--poll-interval", str(self.config.poll_interval_s),
                "--scratch", str(node_scratch),
            ]
            if chaos:
                argv += ["--chaos", json.dumps(chaos)]
            proc = subprocess.Popen(
                argv, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            self._nodes[node_id] = _NodeState(
                node_id=node_id, proc=proc, chaos=chaos,
            )
        self._accept_hellos()

    def _accept_hellos(self) -> None:
        """Match incoming connections to nodes by their hello line."""
        assert self._server is not None
        waiting = {
            node_id for node_id, state in self._nodes.items()
            if state.conn is None
        }
        while waiting:
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                break
            conn.settimeout(5.0)
            try:
                hello = self._read_hello(conn)
            except (OSError, ValueError):
                conn.close()
                continue
            node_id = hello.get("node")
            state = self._nodes.get(node_id)
            if state is None or state.conn is not None:
                conn.close()
                continue
            conn.settimeout(0.0)  # non-blocking from here on
            state.conn = conn
            state.pid = int(hello.get("pid", 0))
            waiting.discard(node_id)
        for node_id in waiting:  # never dialed in: dead on arrival
            self._mark_dead(
                self._nodes[node_id], "node never connected"
            )

    @staticmethod
    def _read_hello(conn: socket.socket) -> Dict[str, Any]:
        buffer = b""
        while b"\n" not in buffer:
            chunk = conn.recv(4096)
            if chunk == b"":
                raise ValueError("connection closed before hello")
            buffer += chunk
        line = buffer.split(b"\n", 1)[0]
        return json.loads(line.decode("utf-8"))

    def stop(self) -> None:
        for state in self._nodes.values():
            if state.conn is not None and not state.dead:
                try:
                    state.conn.sendall(b'{"type": "shutdown"}\n')
                except OSError:
                    pass
            if state.conn is not None:
                state.conn.close()
                state.conn = None
            kill_process(state.proc, grace_s=1.0)
        if self._server is not None:
            self._server.close()
            self._server = None

    def executors(self) -> List[str]:
        return [
            node_id for node_id, state in self._nodes.items()
            if not state.dead and state.conn is not None
        ]

    # -- scheduling ----------------------------------------------------------

    def try_submit(self, assignment: Assignment) -> Optional[str]:
        candidates = [
            state for state in self._nodes.values()
            if not state.dead and state.conn is not None
            and state.outstanding < self.config.workers
        ]
        if not candidates:
            return None
        state = min(candidates, key=lambda s: (s.outstanding, s.node_id))
        message = json.dumps({
            "type": "task",
            "spec": assignment.spec,
            "timeout_s": assignment.timeout_s,
        }) + "\n"
        try:
            state.conn.sendall(message.encode("utf-8"))
        except OSError as exc:
            self._mark_dead(state, f"send failed: {exc}")
            return None
        state.outstanding += 1
        return state.node_id

    def poll(self) -> List[BackendEvent]:
        events: List[BackendEvent] = []
        for state in self._nodes.values():
            if not state.dead:
                events.extend(self._drain(state))
            if state.dead and not state.dead_reported:
                state.dead_reported = True
                events.append(BackendEvent(
                    kind="executor-dead",
                    executor=state.node_id,
                    detail=state.dead_reason,
                ))
        return events

    def _drain(self, state: _NodeState) -> List[BackendEvent]:
        """Read every pending control message from one node."""
        events: List[BackendEvent] = []
        if state.conn is None:
            return events
        while True:
            try:
                chunk = state.conn.recv(65536)
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                self._mark_dead(state, f"control socket error: {exc}")
                break
            if chunk == b"":
                # EOF: the node process died (SIGKILL included) or shut
                # its socket — either way the executor is gone *now*.
                self._mark_dead(state, "control socket closed")
                break
            state.read_buffer += chunk
        while b"\n" in state.read_buffer:
            line, state.read_buffer = state.read_buffer.split(b"\n", 1)
            if not line.strip():
                continue
            try:
                message = json.loads(line.decode("utf-8"))
            except ValueError:
                continue  # garbage on the control plane: skip the line
            kind = message.get("type")
            if kind == "heartbeat":
                events.append(BackendEvent(
                    kind="renew", executor=state.node_id,
                ))
            elif kind == "outcome":
                state.outstanding = max(0, state.outstanding - 1)
                events.append(BackendEvent(
                    kind="outcome",
                    executor=state.node_id,
                    outcome=message.get("outcome") or {},
                ))
        return events

    def _mark_dead(self, state: _NodeState, reason: str) -> None:
        if state.dead:
            return
        state.dead = True
        state.dead_reason = reason
        state.outstanding = 0
        if state.conn is not None:
            state.conn.close()
            state.conn = None
        kill_process(state.proc, grace_s=0.2)
