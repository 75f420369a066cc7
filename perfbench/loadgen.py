"""HTTP load generation against the server: an open and a closed loop.

At most ``CONNECTIONS`` sender threads run, each owning one keep-alive
connection.  In the open loop a request that falls due while every sender is
busy goes out late, and its latency still counts from when it was due.
"""

from __future__ import annotations

import http.client
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.wire import get_codec

from .stats import Outcome
from .traffic import Planned

#: Sender threads and connections: never more than the machine's cores.
CONNECTIONS = max(1, min(2, len(os.sched_getaffinity(0))))
REQUEST_TIMEOUT = 30.0


@dataclass
class Served:
    """One request and what came back."""

    planned: Planned
    outcome: Outcome
    cache_state: Optional[str] = None
    body: bytes = b""


class _Sender:
    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None

    def send(self, planned: Planned, due: float) -> Served:
        content_type = get_codec(planned.codec).content_type
        headers = {"Content-Type": content_type, "Accept": content_type}
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
        sent = time.perf_counter()
        try:
            self.conn.request("POST", "/diagnose", planned.body, headers)
            reply = self.conn.getresponse()
            body = reply.read()
            status: Optional[int] = reply.status
            cache_state = reply.getheader("X-Response-Cache")
            if reply.getheader("Connection", "").lower() == "close":
                self.close()
        except (OSError, http.client.HTTPException, socket.timeout):
            self.close()
            status, cache_state, body = None, None, b""
        done = time.perf_counter()
        return Served(planned, Outcome(due, sent, done, status), cache_state, body)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class LoadGenerator:
    """Sender threads over persistent connections to one server."""

    def __init__(self, port: int) -> None:
        self.senders = [_Sender(port) for _ in range(CONNECTIONS)]

    def _run(self, work, connections: Optional[int] = None) -> None:
        senders = self.senders[:connections] if connections else self.senders
        threads = [threading.Thread(target=work, args=(s,)) for s in senders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def open_loop(
        self, planned: Sequence[Planned], offsets: Sequence[float], connections: int
    ) -> List[Served]:
        """Send ``planned[i]`` at ``offsets[i]`` seconds after the start over the
        first ``connections`` senders."""
        results: List[Optional[Served]] = [None] * len(planned)
        lock = threading.Lock()
        cursor = [0]
        start = time.perf_counter() + 0.05

        def work(sender: _Sender) -> None:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(planned):
                    return
                due = start + offsets[index]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                results[index] = sender.send(planned[index], due)

        if not 1 <= connections <= len(self.senders):
            raise ValueError(f"connections must lie in [1, {len(self.senders)}]")
        self._run(work, connections)
        return [served for served in results if served is not None]

    def closed_loop(self, planned: Sequence[Planned], seconds: float) -> List[Served]:
        """Each sender sends its next request as soon as the last one returns."""
        results: List[Served] = []
        lock = threading.Lock()
        cursor = [0]
        exhausted = threading.Event()
        stop = time.perf_counter() + seconds

        def work(sender: _Sender) -> None:
            while time.perf_counter() < stop:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(planned):
                    exhausted.set()
                    return
                served = sender.send(planned[index], time.perf_counter())
                with lock:
                    results.append(served)

        self._run(work)
        if exhausted.is_set():
            raise RuntimeError(f"closed loop ran out of its {len(planned)} planned requests")
        return results

    def serial(self, planned: Sequence[Planned]) -> List[Served]:
        """Send one request at a time (warm-up)."""
        return [self.senders[0].send(item, time.perf_counter()) for item in planned]

    def close(self) -> None:
        for sender in self.senders:
            sender.close()
