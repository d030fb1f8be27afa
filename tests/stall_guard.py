"""Run a command; fail when it mostly *waited*: wall > 2 x CPU + 10 s.

CI's guard for the socket-heavy suites.  They are CPU-bound when the distrib
plane is healthy (wall ~1.1x CPU); a re-introduced 2 s accept-thread join or
40 ms-per-batch Nagle stall is wall clock with no CPU behind it, which quietly
doubles the suite instead of failing it.  CPU seconds are user + system of
this process and every child it waited for (``os.times()``).

    python tests/stall_guard.py python -m pytest -q tests/test_distrib.py ...
"""

from __future__ import annotations

import os
import subprocess
import sys
import time


def main(command) -> int:
    started = time.monotonic()
    status = subprocess.call(command)
    wall = time.monotonic() - started
    cpu = sum(os.times()[:4])  # user, system, children_user, children_system
    limit = 2.0 * cpu + 10.0
    print(f"stall guard: wall {wall:.1f} s, cpu {cpu:.1f} s, limit {limit:.1f} s")
    if status == 0 and wall > limit:
        print("stall guard: the command waited more than it computed — look "
              "for a sleeping join, poll loop or socket stall (--durations)")
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
