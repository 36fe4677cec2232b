"""The real server as a subprocess, and the one HTTP connection that drives it.

The benchmark measures ``python -m repro serve`` exactly as an operator
would start it: default 5 ms coalescer, default cache, an ephemeral port.
Nothing here imports :mod:`repro`; the client is plain :mod:`http.client`
so that a change to the repository's own ``ServerClient`` cannot move a
benchmark number.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Tuple

#: Readiness and shutdown limits (seconds). A boot takes 2-5 s at the
#: benchmark's scale; the limits only bound a hung server.
BOOT_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0
REQUEST_TIMEOUT = 60.0


class ServerProcess:
    """``python -m repro serve --dataset acmdl ...`` as a child process.

    ``spawned_at`` is taken just before ``Popen`` so the caller can time
    process spawn -> first correct answer. Always use as a context manager
    (or call :meth:`stop`): the child is interrupted, reaped, and killed if
    it ignores the interrupt, also when the run fails.
    """

    def __init__(self, repo_root: Path, scale: float, seed: int,
                 data_dir: Optional[Path] = None) -> None:
        self._argv = [
            sys.executable, "-m", "repro", "serve",
            "--dataset", "acmdl", "--scale", repr(scale),
            "--seed", str(seed), "--port", "0",
        ]
        if data_dir is not None:
            self._argv += ["--data-dir", str(data_dir)]
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = str(repo_root / "src")
        self._env["PYTHONHASHSEED"] = "0"
        self._env.pop("REPRO_BACKEND", None)  # the program's default backend
        self._cwd = str(repo_root)
        self._proc: Optional[subprocess.Popen] = None
        self.spawned_at = 0.0
        self.port = 0

    def start(self) -> "ServerProcess":
        """Spawn and block until the ``serving ... at http://`` line."""
        self.spawned_at = time.perf_counter()
        self._proc = subprocess.Popen(
            self._argv, env=self._env, cwd=self._cwd,
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        )
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise
        return self

    def _await_port(self) -> int:
        assert self._proc is not None and self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + BOOT_TIMEOUT
        buffered = b""
        while True:
            while b"\n" in buffered:
                line, buffered = buffered.split(b"\n", 1)
                text = line.decode("utf-8", "replace")
                if text.startswith("serving ") and " at http://" in text:
                    address = text.split(" at http://", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not report its address in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"server exited with code {self._proc.wait()} before serving"
                )
            buffered += chunk

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        assert self._proc is not None
        with open(f"/proc/{self._proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found in /proc status")

    def cpu_seconds(self) -> float:
        """CPU time the server has used so far (user + system, all threads)."""
        assert self._proc is not None
        with open(f"/proc/{self._proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGINT (graceful drain), reap; SIGKILL after ``STOP_TIMEOUT``."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            if proc.stdout is not None:
                proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class Connection:
    """One persistent HTTP/1.1 connection speaking the server's JSON protocol."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT)
        self._conn.connect()
        # Headers and body leave as two writes; Nagle would hold the body
        # behind the peer's delayed ACK for tens of milliseconds.
        self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def post(self, path: str, payload) -> Tuple[int, object]:
        """One round trip: ``(status, decoded JSON body)``.

        Transport errors answer status 0 so the caller counts them as
        failed operations instead of aborting the run.
        """
        try:
            self._conn.request("POST", path, body=json.dumps(payload).encode("utf-8"),
                               headers={"Content-Type": "application/json"})
            response = self._conn.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self._conn.close()
            return 0, {"error": {"type": "transport", "message": repr(exc)}}

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
