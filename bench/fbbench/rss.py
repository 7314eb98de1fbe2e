"""Peak resident memory of this process plus every child it starts.

The sweep's pool workers are children of this process; each reaches its own
peak while it runs and takes it with it when it exits, so a thread polls the
high-water marks (``VmHWM``) of this process and of every live child. The
result is the largest sum seen at one poll: the memory the workload held at
once, counting each process at its peak so far (pages a forked worker shares
with this process count twice).
"""

from __future__ import annotations

import os
import resource
import threading

POLL_S = 0.05


def _high_water_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass  # the child exited between listing and reading
    return 0


def _children() -> set[int]:
    pids: set[int] = set()
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as handle:
                pids.update(int(p) for p in handle.read().split())
        except FileNotFoundError:
            pass  # the thread ended after the listing
    return pids


class PeakRSS:
    def __init__(self) -> None:
        self._peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, name="peak-rss", daemon=True)

    def _poll(self) -> None:
        while not self._stop.wait(POLL_S):
            total = _high_water_kb(os.getpid()) + sum(_high_water_kb(pid) for pid in _children())
            self._peak_kb = max(self._peak_kb, total)

    def start(self) -> "PeakRSS":
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stop polling; return the peak in MB (2^20 bytes)."""
        self._stop.set()
        self._thread.join(timeout=5.0)
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(self._peak_kb, own_kb) / 1024.0
