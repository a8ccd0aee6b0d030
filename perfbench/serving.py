"""The serve half of a workload: a ``repro serve`` process and one client.

The client holds one keep-alive connection.  It first runs a closed loop
(next request only after the previous answer) to measure throughput, then
an open loop at a fixed offered rate, timing each request from the moment
it was *due*, so a stall also charges the requests queued behind it, and
recording how late the generator itself ran.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["ServerProcess", "ServeRun", "query_stream", "closed_loop", "open_loop"]

#: Seconds a server gets to answer its first health probe.
READY_TIMEOUT_S = 60.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


class ServerProcess:
    """``python -m repro serve`` on a free localhost port."""

    def __init__(self, root: Path, checkpoint: Path, dataset: str, scale: float,
                 seed: int, log: Path) -> None:
        self.port = _free_port()
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(log, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--checkpoint", str(checkpoint), "--dataset", dataset,
             "--scale", repr(scale), "--seed", str(seed),
             "--port", str(self.port)],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=self._log,
        )
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        #: Seconds from launch until ``/healthz`` answered 200.
        self.startup_s = time.perf_counter() - started
        #: CPU seconds the server used until then.
        self.startup_cpu_s = self.cpu_seconds()

    def cpu_seconds(self) -> float:
        """User + system CPU seconds the server has used so far.

        Read from ``/proc/<pid>/stat`` (Linux), in clock ticks; the kernel
        keeps their sum equal to the precisely measured run time.
        """
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()  # after "pid (comm)"
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with code {self.proc.returncode}")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("repro serve did not become ready in time")

    def connect(self) -> http.client.HTTPConnection:
        """A keep-alive connection to the server."""
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)

    def stop(self) -> None:
        """Terminate the server and wait until it has exited."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def query_stream(triples: np.ndarray, n: int, rng: np.random.Generator
                 ) -> list[dict[str, int]]:
    """``n`` filtered queries, each made from a uniformly drawn triple.

    A draw asks for the triple's tail ``(h, r, ?)`` or its head
    ``(?, r, t)`` with equal odds, so a query recurs as often as the
    triples behind it: popular entities (hits in the server's LRU) and a
    long tail of rare ones (misses that score all entities) follow the
    graph's own skew.
    """
    rows = triples[rng.integers(0, len(triples), size=n)]
    tail_side = rng.integers(0, 2, size=n).astype(bool)
    return [{"head": int(h), "relation": int(r)} if tail else
            {"tail": int(t), "relation": int(r)}
            for (h, r, t), tail in zip(rows.tolist(), tail_side.tolist())]


@dataclass
class ServeRun:
    """What one client phase observed."""

    sent: int = 0
    non_200: int = 0
    elapsed_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    lateness_ms: list[float] = field(default_factory=list)
    #: ``(query, answer)`` pairs kept for the engine-direct check.
    answers: list[tuple[dict[str, int], dict[str, Any]]] = field(default_factory=list)


def _post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
    conn.request("POST", "/predict", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def closed_loop(conn: http.client.HTTPConnection, stream: list[dict[str, int]],
                seconds: float, keep: int) -> ServeRun:
    """Send the stream back to back for ``seconds``; keep ``keep`` answers.

    ``seconds=inf`` sends the whole stream.
    """
    run = ServeRun()
    started = time.perf_counter()
    deadline = started + seconds
    for query in stream:
        status, data = _post(conn, json.dumps(query).encode())
        run.sent += 1
        if status != 200:
            run.non_200 += 1
        elif len(run.answers) < keep:
            run.answers.append((query, json.loads(data)["results"][0]))
        if time.perf_counter() >= deadline:
            break
    else:
        if seconds != float("inf"):
            raise RuntimeError("closed loop ran out of queries; lengthen the stream")
    run.elapsed_s = time.perf_counter() - started
    return run


def open_loop(conn: http.client.HTTPConnection, stream: list[dict[str, int]],
              rate: float) -> ServeRun:
    """Offer the stream at ``rate`` requests/s, timing from each due time."""
    run = ServeRun()
    bodies = [json.dumps(query).encode() for query in stream]
    started = time.perf_counter()
    for i, body in enumerate(bodies):
        due = started + i / rate
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)  # sleep, not spin: the server needs the CPU
        sent_at = time.perf_counter()
        status, _ = _post(conn, body)
        done = time.perf_counter()
        run.sent += 1
        if status != 200:
            run.non_200 += 1
        run.latencies_ms.append((done - due) * 1e3)
        run.lateness_ms.append((sent_at - due) * 1e3)
    run.elapsed_s = time.perf_counter() - started
    return run
