"""Start, watch and reap one ``python -m repro serve`` process.

The server runs single-process with the result cache off, no tracing,
no query log and an ephemeral port, so what a client waits for is the
join itself; it can be held to given CPUs.  Its stderr goes to a file in the run directory and is
shown when the server fails.  :meth:`ServeProcess.stop` drains it with
SIGTERM, kills it if the drain hangs, and always waits for it.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Optional, Sequence

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


class ServeError(RuntimeError):
    pass


class ServeProcess:
    def __init__(
        self,
        index_path: str,
        src_dir: str,
        log_path: str,
        cpus: Optional[Sequence[int]] = None,
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.log_path = log_path
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--index", index_path,
                "--host", "127.0.0.1",
                "--port", "0",
                "--workers", "1",
                "--result-cache-size", "0",
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
        )
        self.pid = self.proc.pid
        self.port: Optional[int] = None
        if cpus is not None:
            os.sched_setaffinity(self.pid, cpus)

    def wait_ready(self) -> int:
        """Block until the ready line names the port."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        stdout = self.proc.stdout
        while time.monotonic() < deadline:
            readable, _, _ = select.select([stdout], [], [], 0.5)
            if readable:
                line = stdout.readline()
                if not line:
                    break
                event = json.loads(line)
                if event.get("event") == "ready":
                    self.port = int(event["port"])
                    return self.port
            elif self.proc.poll() is not None:
                break
        raise ServeError(
            f"serve did not become ready (exit {self.proc.poll()}): "
            f"{self.stderr_tail()}"
        )

    def stderr_tail(self, limit: int = 2000) -> str:
        self._log.flush()
        with open(self.log_path, "rb") as handle:
            return handle.read()[-limit:].decode("utf-8", "replace")

    def peak_rss_mib(self) -> float:
        """``VmHWM`` of the server, in MiB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServeError("VmHWM missing from /proc status")

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server has used so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        proc = self.proc
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            if proc.stdout is not None:
                proc.stdout.close()
            self._log.close()
