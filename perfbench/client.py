"""A closed-loop client for one in-process ``handle_lines`` connection.

The client plays both ends of the connection's byte stream: the
server's reader pulls request lines through :meth:`Connection.readline`
and its writer pushes reply lines through :meth:`Connection.write_line`.
One request is outstanding at a time: the next line is handed to the
reader only after the previous reply was written (with more, runs of the
same code measured how the service's threads shared the host's CPUs; see
README.md).  A request's latency runs from the moment its line is handed
to the reader to the moment its reply line is written.  Replies come
back in request order, so the k-th reply of a phase answers the k-th
line sent in it.

A timed phase is cut into blocks of about a second.  At each block
boundary, while no request is in flight, the client reads the host's
speed (:mod:`hostspeed`) and marks where the next block starts.
"""

from __future__ import annotations

import asyncio
import json
import time

from hostspeed import slowness
from repro.service.server import handle_lines

BLOCK_S = 1.0


class Phase:
    """Lines sent and replies received between two calls of ``run``.

    A hashed phase keeps ``hash(reply)`` instead of the reply, so the
    client's memory stays flat however many replies a window collects.
    """

    def __init__(self, lines, deadline=None, hashed=False) -> None:
        self._lines = lines
        self._deadline = deadline
        self.hashed = hashed
        self.sent: list[float] = []
        self.recv: list[float] = []
        self.replies: list = []
        #: (requests sent before it, time it ended, host slowness) per
        #: block boundary of a timed phase, the first before any request.
        self.marks: list[tuple[int, float, float]] = []
        if deadline is not None:
            self.mark()
        self.start = time.perf_counter()
        self.done = asyncio.Event()

    def mark(self) -> None:
        slow = slowness()
        self.marks.append((len(self.sent), time.perf_counter(), slow))

    def block_due(self) -> bool:
        return bool(self.marks) and time.perf_counter() - self.marks[-1][1] >= BLOCK_S

    def next_line(self):
        """The next line to send, or None once the phase stops sending."""
        k = len(self.sent)
        if self._deadline is None:
            return self._lines[k] if k < len(self._lines) else None
        if time.perf_counter() >= self._deadline:
            return None
        return self._lines[k % len(self._lines)]

    @property
    def latencies(self) -> list[float]:
        return [r - s for s, r in zip(self.sent, self.recv)]


class Connection:
    """One client connection to a started ``SolveService``."""

    def __init__(self, service) -> None:
        self._phase: Phase | None = None
        self._sending = False
        self._closed = False
        self._wake = asyncio.Event()
        self._task = asyncio.create_task(
            handle_lines(service, self.readline, self.write_line)
        )

    async def readline(self) -> bytes:
        while True:
            if self._closed:
                return b""
            phase = self._phase
            if self._sending and self._may_send(phase):
                line = phase.next_line()
                if line is not None:
                    phase.sent.append(time.perf_counter())
                    return line
                self._sending = False
                if len(phase.recv) == len(phase.sent):
                    phase.done.set()
            self._wake.clear()
            await self._wake.wait()

    def _may_send(self, phase: Phase) -> bool:
        if len(phase.sent) > len(phase.recv):
            return False
        if phase.block_due():
            phase.mark()
        return True

    async def write_line(self, line: str) -> None:
        phase = self._phase
        phase.recv.append(time.perf_counter())
        phase.replies.append(hash(line) if phase.hashed else line)
        if not self._sending and len(phase.recv) == len(phase.sent):
            phase.done.set()
        self._wake.set()

    async def run(self, lines, seconds: float | None = None,
                  hashed: bool = False) -> Phase:
        """Send ``lines`` (cycled for ``seconds`` if given); await every reply."""
        deadline = None if seconds is None else time.perf_counter() + seconds
        phase = self._phase = Phase(lines, deadline, hashed)
        self._sending = True
        self._wake.set()
        await phase.done.wait()
        if phase.marks:
            phase.mark()
        return phase

    async def snapshot(self) -> tuple[dict, dict]:
        """The service's ``stats`` and ``metrics`` wire ops, in that order."""
        phase = await self.run([b'{"id":"stats","op":"stats"}',
                                b'{"id":"metrics","op":"metrics"}'])
        stats, metrics = (json.loads(line) for line in phase.replies)
        return stats["stats"], metrics["metrics"]

    async def close(self) -> None:
        self._closed = True
        self._wake.set()
        await self._task
