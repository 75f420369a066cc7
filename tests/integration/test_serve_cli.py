"""``repro-serve`` as a process: the command-line contract scripts rely on.

The benchmark harness and users' scripts start ``repro-serve --async
--monitor`` and read the parsed flags back through ``build_parser()``.
``--async`` is a no-op kept for them: with or without it the process serves
through the asyncio gateway, announces ``listening on http://…``, answers
``/healthz``, and exits 0 on SIGINT without a traceback — also while an idle
keep-alive client is still connected.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.cli import serve as serve_cli

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class TestServeParserContract:
    def test_accepts_async_and_monitor_and_exposes_benchmark_flags(self, tmp_path):
        flags = serve_cli.build_parser().parse_args(
            ["--registry", str(tmp_path), "--async", "--monitor"]
        )
        assert flags.monitor is True
        assert flags.async_gateway is True
        for name in (
            "batch_wait", "max_batch_cases", "cache_size",
            "monitor_window", "monitor_update_cases",
        ):
            assert hasattr(flags, name), name
        assert flags.replicas == 2


class _ServeProcess:
    """One ``repro-serve`` child whose combined output is read on a thread."""

    def __init__(self, registry: Path, extra_args) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(
            [
                sys.executable, "-c",
                "import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
                "from repro.cli.serve import main; sys.exit(main(sys.argv[1:]))",
                "--registry", str(registry), "--port", "0", *extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.lines = []
        self.address = None
        self._announced = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line)
            match = LISTENING.search(line)
            if match and self.address is None:
                self.address = (match.group(1), int(match.group(2)))
                self._announced.set()
        self._announced.set()

    def wait_listening(self, timeout: float = 60.0):
        self._announced.wait(timeout)
        assert self.address is not None, "".join(self.lines)
        return self.address

    def interrupt(self, timeout: float = 30.0) -> int:
        self.process.send_signal(signal.SIGINT)
        code = self.process.wait(timeout)
        self._reader.join(timeout)
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


@pytest.mark.parametrize("extra_args", [(), ("--async",)], ids=["default", "async-flag"])
def test_repro_serve_runs_the_gateway_and_stops_cleanly(tmp_path, extra_args):
    server = _ServeProcess(tmp_path / "registry", extra_args)
    try:
        host, port = server.wait_listening()
        connection = http.client.HTTPConnection(host, port, timeout=30)
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        health = json.loads(response.read())
        assert response.status == 200
        assert health["replicas"] == 2
        # The keep-alive connection stays open and idle across the interrupt.
        code = server.interrupt()
        connection.close()
    finally:
        server.kill()
    output = "".join(server.lines)
    assert code == 0, output
    assert "Traceback" not in output, output
