"""Server processes and closed-loop clients of the exchange benchmark.

:class:`Server` boots ``python -m repro.service.server --port 0 --store
DIR`` (or the traced bootstrap around it) from the checkout's ``src`` and
reaps it with ``os.wait4``, whose resource usage gives the server's peak
RSS.  :func:`drive` runs the closed loop: each client connection sends its
next request only after the previous reply arrived, taking requests in
list order until the time is up; a later run on the same server can
continue the list where an earlier one stopped.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set

BANNER = "listening on "
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to measuring a failure)."""


def pin_client() -> Optional[Set[int]]:
    """Move the calling (client) process onto one CPU of its own and
    return the other CPUs, for the server, so that waking a client thread
    never preempts the server.  ``None`` (nothing pinned) on one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[-1]})
    return set(cpus[:-1])


def encode(message: Dict[str, Any]) -> bytes:
    return (json.dumps(message, separators=(",", ":")) + "\n").encode()


class Conn:
    """One lock-step JSON-lines connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        reply = self.reader.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return reply

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one message; the decoded reply, which must be ``ok``."""
        reply = json.loads(self.call(encode(message)))
        if not reply.get("ok"):
            raise BenchError(f"{message.get('op')} failed: "
                             f"{reply.get('error')}: {reply.get('message')}")
        return reply

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Server:
    """One exchange server process on a fresh store under ``workdir``."""

    def __init__(self, root: Path, workdir: Path,
                 dump: Optional[Path] = None,
                 cpus: Optional[Set[int]] = None) -> None:
        self.root = root
        self.workdir = workdir
        self.dump = dump
        self.cpus = cpus
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.rss_mb = 0.0
        self.spawned_at = 0.0
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader: Optional[threading.Thread] = None
        self._stderr = workdir / "server.stderr"

    def start(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        server_args = ["--port", "0", "--store", str(self.workdir / "store")]
        if self.dump is None:
            command = [sys.executable, "-m", "repro.service.server",
                       *server_args]
        else:
            command = [sys.executable,
                       str(Path(__file__).with_name("traced_server.py")),
                       "--dump", str(self.dump), "--", *server_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(self.workdir)
        env["SQLITE_TMPDIR"] = str(self.workdir)
        self.spawned_at = time.perf_counter()
        with open(self._stderr, "wb") as errors:
            self.proc = subprocess.Popen(
                command, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=errors, text=True)
        if self.cpus:
            # Set before the server starts its threads, which inherit it.
            try:
                os.sched_setaffinity(self.proc.pid, self.cpus)
            except ProcessLookupError:  # exited at once; reported below
                pass
        self._reader = threading.Thread(target=self._read_stdout,
                                        daemon=True)
        self._reader.start()
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline
                                                   - time.monotonic()))
            except queue.Empty:
                raise BenchError("server did not announce its port") from None
            if line is None:
                raise BenchError("server exited during start-up:\n"
                                 + self.stderr_tail())
            if line.startswith(BANNER):
                self.port = int(line.rsplit(":", 1)[1])
                return

    def _read_stdout(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def stderr_tail(self, limit: int = 4000) -> str:
        try:
            return self._stderr.read_text(errors="replace")[-limit:]
        except OSError:
            return ""

    def connect(self) -> Conn:
        return Conn(self.port)

    def stop(self, conn: Optional[Conn] = None) -> None:
        """Ask for a clean shutdown over ``conn`` (without one, terminate
        the server), then reap the process, killing it if it does not exit,
        and record its peak RSS.  Idempotent."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if conn is None:
                proc.terminate()
            else:
                conn.request({"op": "shutdown"})
        except (OSError, BenchError, ValueError):
            pass
        finally:
            if conn is not None:
                conn.close()
            self._reap(proc, clean=conn is not None)
            if self._reader is not None:
                self._reader.join(timeout=EXIT_TIMEOUT_S)
            if proc.stdout is not None:
                proc.stdout.close()

    def _reap(self, proc: subprocess.Popen, clean: bool) -> None:
        deadline = time.monotonic() + EXIT_TIMEOUT_S
        killed = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                break
            if time.monotonic() > deadline and not killed:
                proc.kill()
                killed = True
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux.  It starts from the spawning
        # process's peak RSS (the child shares its memory until exec), so
        # it is the server's own peak only when the client was small at
        # spawn time: see run.run_untraced.
        self.rss_mb = usage.ru_maxrss / 1024.0
        if killed:
            raise BenchError("server did not exit after shutdown")
        if clean and proc.returncode != 0:
            raise BenchError(f"server exited with {proc.returncode}:\n"
                             + self.stderr_tail())


# --------------------------------------------------------------------- #
# Closed loop
# --------------------------------------------------------------------- #

@dataclass
class Outcome:
    """One request as the client saw it."""

    index: int
    start: float
    end: float
    replies: List[bytes]
    error: Optional[str] = None

    @property
    def latency_s(self) -> float:
        return self.end - self.start


@dataclass
class Load:
    """Every request one closed-loop run completed or attempted."""

    started: float
    outcomes: List[Outcome] = field(default_factory=list)
    #: The first request of the list this run did not take.
    next_index: int = 0

    @property
    def elapsed_s(self) -> float:
        if not self.outcomes:
            return 0.0
        return max(outcome.end for outcome in self.outcomes) - self.started

    @property
    def completed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.error is None)

    @property
    def req_per_s(self) -> float:
        elapsed = self.elapsed_s
        return self.completed / elapsed if elapsed > 0 else 0.0


def drive(conns: List[Conn], start: int, stop: int, seconds: float,
          send: Callable[[Conn, int], List[bytes]]) -> Load:
    """Closed loop over requests ``start .. stop-1`` with one thread per
    connection; ``send(conn, i)`` performs request ``i`` and returns its
    raw reply lines.  A client that hits a transport error records it and
    stops (its connection is no longer in a known state)."""
    lock = threading.Lock()
    cursor = [start]
    barrier = threading.Barrier(len(conns) + 1)
    outcomes: List[Outcome] = []
    load = Load(started=0.0, outcomes=outcomes)

    def client(conn: Conn) -> None:
        barrier.wait()
        deadline = load.started + seconds
        clock = time.perf_counter
        while True:
            with lock:
                index = cursor[0]
                if index >= stop or clock() >= deadline:
                    return
                cursor[0] = index + 1
            start = clock()
            try:
                replies = send(conn, index)
            except (OSError, ValueError, KeyError) as error:
                outcomes.append(Outcome(index, start, clock(), [],
                                        f"{type(error).__name__}: {error}"))
                return
            outcomes.append(Outcome(index, start, clock(), replies))

    threads = [threading.Thread(target=client, args=(conn,), daemon=True)
               for conn in conns]
    for thread in threads:
        thread.start()
    load.started = time.perf_counter()
    barrier.wait()
    for thread in threads:
        thread.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
        if thread.is_alive():
            raise BenchError("a client did not finish")
    outcomes.sort(key=lambda outcome: outcome.index)
    load.next_index = cursor[0]
    return load
