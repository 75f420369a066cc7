"""The server under test, run in its own process through ``repro-serve``."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Dict, List, Optional

#: ``repro-serve --async --monitor``: the asyncio gateway over the default
#: 2-replica pool, shipped DiagnoserConfig defaults, drift monitor observing.
SERVE_ARGS = ("--async", "--monitor")

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")
_TRACEBACK = "Traceback (most recent call last)"


class ServerProcess:
    """Start, query and stop one ``repro-serve`` process.

    The process's stdout and stderr are read on a thread into memory, so the
    tracebacks it logs can be counted after it stops.
    """

    def __init__(self, registry: str, src_dir: str, start_timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        command = [
            sys.executable,
            "-c",
            # repro-serve stops cleanly on KeyboardInterrupt; restore the
            # SIGINT handler in case the benchmark was started with it ignored.
            "import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
            "from repro.cli.serve import main; sys.exit(main(sys.argv[1:]))",
            "--registry", registry, "--port", "0", *SERVE_ARGS,
        ]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.lines: List[str] = []
        self._listening = threading.Event()
        self.port: Optional[int] = None
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            if not self._listening.wait(start_timeout) or self.port is None:
                raise RuntimeError(
                    "server did not start:\n" + "".join(self.lines[-40:])
                )
            self.get_json("/healthz")
        except BaseException:
            self.stop()
            raise
        self.start_seconds = time.perf_counter() - started

    def _read(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self.lines.append(line)
            match = _LISTENING.search(line)
            if match and self.port is None:
                self.port = int(match.group(2))
                self._listening.set()
        self._listening.set()

    @property
    def pid(self) -> int:
        return self.process.pid

    def get_json(self, path: str) -> Dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}{path}", timeout=30) as reply:
            return json.loads(reply.read())

    def peak_rss_mb(self) -> float:
        """The process's high-water resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported by /proc")

    def stop(self, timeout: float = 15.0) -> int:
        """Interrupt, wait for exit (killing after ``timeout``) and return the
        number of tracebacks the process logged."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout)
        return self.logged_errors()

    def logged_errors(self) -> int:
        return sum(1 for line in self.lines if _TRACEBACK in line)

    def exit_code(self) -> Optional[int]:
        return self.process.poll()
