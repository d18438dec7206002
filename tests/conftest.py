"""Shared fixtures: the process table, for tests about process lifetime."""

import os
import signal
import time
from pathlib import Path

import pytest


class ProcessTable:
    """Reads ``/proc``: which processes a PID started, and which still
    run.  A zombie has exited, so it does not count as running."""

    @staticmethod
    def _stat(pid: int | str) -> list[str] | None:
        try:
            text = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            return None
        # Fields after the command name, which is parenthesized and may
        # hold spaces: state, then parent PID.
        return text.rsplit(")", 1)[1].split()

    def running(self, pid: int | str) -> bool:
        stat = self._stat(pid)
        return stat is not None and stat[0] not in ("Z", "X")

    def children(self, pid: int) -> list[int]:
        """The running processes whose parent is ``pid``."""
        return sorted(
            int(entry.name)
            for entry in Path("/proc").iterdir()
            if entry.name.isdigit()
            and (self._stat(entry.name) or ["", ""])[1] == str(pid)
            and self.running(entry.name)
        )

    def survivors(self, pids: list[int], timeout: float) -> list[int]:
        """Wait up to ``timeout`` seconds for ``pids`` to exit, then
        SIGKILL and return those still running, so a failing test
        leaves nothing behind."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not any(self.running(pid) for pid in pids):
                return []
            time.sleep(0.05)
        left = [pid for pid in pids if self.running(pid)]
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return left


@pytest.fixture()
def process_table() -> ProcessTable:
    if not Path("/proc/self/stat").exists():
        pytest.skip("reads the process table from /proc")
    return ProcessTable()
