"""The system under test as subprocesses, and the load generator that drives it.

``Daemon`` starts ``incprof serve`` or ``incprof serve-fleet`` from the
checkout's ``src`` and stops it with the ``shutdown`` control, never a
signal.  ``drive`` replays pre-encoded frames over one connection with
two threads: the caller's thread sends, a reader thread takes replies.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from common import PINNED_ENV, ProcessLedger, log
from repro.service.client import PhaseClient
from repro.service.protocol import (Bye, Endpoint, FrameReader, Hello,
                                    SnapshotMsg, decode_payload,
                                    encode_message)
from repro.gprof.gmon import GmonBlob
from repro.util.errors import ReproError

STARTUP_TIMEOUT = 30.0
SHUTDOWN_TIMEOUT = 20.0


class Daemon:
    """One ``serve`` or ``serve-fleet`` process tree, started and stopped."""

    def __init__(self, root: Path, src: Path, ledger: ProcessLedger,
                 args: List[str], workdir: Path,
                 cpus: Optional[Set[int]] = None) -> None:
        self.ledger = ledger
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, **PINNED_ENV)
        env["PYTHONPATH"] = str(src)
        self.out_path = workdir / "stdout.txt"
        self._out = open(self.out_path, "wb")
        # The child inherits this process's CPU affinity, and the fleet's
        # workers inherit the router's; switch ours for the spawn only.
        own = os.sched_getaffinity(0)
        t0 = time.perf_counter()
        if cpus:
            os.sched_setaffinity(0, cpus)
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro"] + args, cwd=str(root),
                env=env, stdout=self._out, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL)
        finally:
            os.sched_setaffinity(0, own)
        ledger.add(self.proc.pid)
        self.endpoint, self.worker_endpoints = self._wait_listening(t0)
        self._ping_until_ready(t0)
        self.setup_s = time.perf_counter() - t0
        self.pids = ledger.add_tree(self.proc.pid)

    def _wait_listening(self, t0: float) -> Tuple[Endpoint, List[Endpoint]]:
        """Parse the listening address the daemon prints on stdout."""
        while time.perf_counter() - t0 < STARTUP_TIMEOUT:
            if self.proc.poll() is not None:
                break
            text = self.out_path.read_text(errors="replace")
            workers = []
            for line in text.splitlines():
                line = line.strip()
                if line.startswith("w") and ": unix:" in line:
                    workers.append(Endpoint.parse(line.split(": ", 1)[1]))
                for marker in ("incprofd listening on ",
                               "router listening on "):
                    if line.startswith(marker):
                        spec = line[len(marker):].split(" ", 1)[0]
                        return Endpoint.parse(spec), workers
            time.sleep(0.01)
        self.kill()
        raise RuntimeError(
            "daemon did not report a listening address: "
            + self.out_path.read_text(errors="replace")[-2000:])

    def _ping_until_ready(self, t0: float) -> None:
        while time.perf_counter() - t0 < STARTUP_TIMEOUT:
            try:
                with PhaseClient(self.endpoint) as probe:
                    if probe.ping().ok:
                        return
            except (ReproError, OSError):
                pass
            time.sleep(0.005)
        self.kill()
        raise RuntimeError("daemon never answered a ping")

    def stats(self) -> Dict:
        with PhaseClient(self.endpoint) as client:
            return client.stats().data

    def shutdown(self) -> bool:
        """Stop with the ``shutdown`` control; True if the tree exited.

        A process tree that is still alive after the timeout is killed so
        nothing outlives the run, and the run is reported as failed.
        """
        clean = True
        try:
            with PhaseClient(self.endpoint) as client:
                client.shutdown()
        except (ReproError, OSError) as exc:
            log(f"shutdown control failed: {exc}")
            clean = False
        try:
            self.proc.wait(timeout=SHUTDOWN_TIMEOUT)
        except subprocess.TimeoutExpired:
            clean = False
        deadline = time.monotonic() + SHUTDOWN_TIMEOUT
        while self.ledger.survivors() and time.monotonic() < deadline:
            time.sleep(0.05)
        if self.ledger.survivors() or self.proc.poll() is None:
            clean = False
            self.kill()
        self._out.close()
        return clean

    def kill(self) -> None:
        """Last resort: SIGKILL every recorded process and reap ours."""
        for pid in self.ledger.survivors():
            try:
                os.kill(pid, 9)
            except OSError:
                pass
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
HELLO, SNAP, BYE = 0, 1, 2


@dataclass
class Frame:
    kind: int
    stream: str
    seq: int
    data: bytes


def stream_frames(stream_id: str, raws: List[bytes]) -> List[Frame]:
    """hello, one v2 snapshot frame per raw gmon dump, bye."""
    frames = [Frame(HELLO, stream_id, -1, encode_message(
        Hello(stream_id=stream_id, app="perfbench", protocols=(1, 2))))]
    for seq, raw in enumerate(raws):
        frames.append(Frame(SNAP, stream_id, seq, encode_message(
            SnapshotMsg(stream_id=stream_id, seq=seq, gmon=GmonBlob(raw)),
            version=2)))
    frames.append(Frame(BYE, stream_id, -1, encode_message(
        Bye(stream_id=stream_id))))
    return frames


def interleave(streams: List[List[Frame]], active: int) -> List[Frame]:
    """Round-robin ``active`` streams at a time; the next opens as one ends."""
    order: List[Frame] = []
    pending = list(reversed(streams))
    live = [iter(pending.pop()) for _ in range(min(active, len(pending)))]
    while live:
        nxt = []
        for it in live:
            frame = next(it, None)
            if frame is None:
                if pending:
                    it = iter(pending.pop())
                    frame = next(it)
                else:
                    continue
            order.append(frame)
            nxt.append(it)
        live = nxt
    return order


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
@dataclass
class DriveResult:
    sent: List[float] = field(default_factory=list)     # send times
    due: List[float] = field(default_factory=list)      # schedule (open loop)
    recv: List[float] = field(default_factory=list)     # reply times
    replies: List[object] = field(default_factory=list)
    error: str = ""
    elapsed: float = 0.0


def drive(endpoint: Endpoint, frames: List[Frame], *,
          rate: Optional[float] = None, window: int = 8,
          timeout: float = 120.0) -> DriveResult:
    """Send ``frames`` on one connection; a second thread reads replies.

    Open loop (``rate`` set): frame i is due at ``t0 + i / rate`` and is
    sent then, whatever the replies are doing — the sender never waits
    for an ack.  Closed loop (``rate`` None): at most ``window`` frames
    are outstanding, the publisher's default pipeline window.
    """
    n = len(frames)
    res = DriveResult(sent=[0.0] * n, due=[0.0] * n, recv=[0.0] * n,
                      replies=[None] * n)
    sock = endpoint.connect(timeout=10.0)
    reader = FrameReader(sock)
    credit = threading.Semaphore(window)
    done = threading.Event()

    def read_loop() -> None:
        try:
            for i in range(n):
                payload = reader.read_frame()
                res.recv[i] = time.perf_counter()
                if payload is None:
                    res.error = f"connection closed after {i} replies"
                    return
                # Decoded after the run: this thread only timestamps.
                res.replies[i] = payload
                credit.release()
        except (ReproError, OSError) as exc:
            if not res.error:
                res.error = f"reply {i}: {exc}"
        finally:
            done.set()
            for _ in range(window):
                credit.release()

    thread = threading.Thread(target=read_loop, name="perfbench-acks",
                              daemon=True)
    thread.start()
    t0 = time.perf_counter()
    try:
        if rate is not None:
            period = 1.0 / rate
            for i, frame in enumerate(frames):
                due = t0 + i * period
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                    now = time.perf_counter()
                res.due[i] = due
                res.sent[i] = now
                sock.sendall(frame.data)
                if done.is_set():
                    break
        else:
            for i, frame in enumerate(frames):
                credit.acquire()
                if done.is_set():
                    break
                now = time.perf_counter()
                res.due[i] = now
                res.sent[i] = now
                sock.sendall(frame.data)
    except OSError as exc:
        res.error = res.error or f"send: {exc}"
    if not done.wait(timeout):
        res.error = res.error or "timed out waiting for replies"
    try:
        sock.shutdown(2)
    except OSError:
        pass
    sock.close()
    thread.join(timeout=10.0)
    res.elapsed = max(res.recv) - t0 if any(res.recv) else 0.0
    for i, payload in enumerate(res.replies):
        if payload is not None:
            try:
                res.replies[i] = decode_payload(payload)
            except ReproError as exc:
                res.replies[i] = None
                res.error = res.error or f"reply {i}: {exc}"
    return res


@dataclass
class StreamCheck:
    """Per-stream outcome of one drive, for the correctness gates."""

    sent: int = 0
    accepted: int = 0
    processed: int = -1
    drained: bool = False
    labels: List[int] = field(default_factory=list)
    error: str = ""


def check_streams(frames: List[Frame], res: DriveResult) -> Dict[str, StreamCheck]:
    """Fold replies into per-stream accepted/processed/drained and labels."""
    out: Dict[str, StreamCheck] = {}
    for frame, reply in zip(frames, res.replies):
        chk = out.setdefault(frame.stream, StreamCheck())
        if frame.kind == SNAP:
            chk.sent += 1
        if reply is None:
            chk.error = chk.error or res.error or "no reply"
            continue
        if not reply.ok:
            chk.error = chk.error or f"{reply.error} {reply.data}"
            continue
        if frame.kind == SNAP and reply.data.get("outcome") == "accepted":
            chk.accepted += 1
        elif frame.kind == BYE:
            chk.processed = int(reply.data.get("processed", -1))
            chk.drained = bool(reply.data.get("drained"))
            chk.labels = list(reply.data.get("phase_sequence", []))
    return out
