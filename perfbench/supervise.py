"""Run the benchmark in a child process and end every process it leaves behind.

The benchmark starts interpreters of its own: the CLI commands, their spawn
pools and the multiprocessing resource trackers, some of which outlive the
process that started them by a moment, and all of which outlive it when a
command times out. `supervise` makes itself a child subreaper, so orphans of
the run are re-parented to it, runs the benchmark as its child, then gives
the leftovers `GRACE_S` to exit, kills what remains and reaps every one
before it returns, on every path out, a termination signal included. The
child stays in the caller's process group, so a signal sent to that group
still reaches all of them.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

PR_SET_CHILD_SUBREAPER = 36
GRACE_S = 5.0
# set in the benchmark child, so that it measures instead of supervising
CHILD_ENV = "PERFBENCH_SUPERVISED"


def _become_subreaper() -> None:
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # orphans then go to init; the live descendants are still ended


def _descendants() -> list[int]:
    """Pids of every live process below this one, from the parent pids in /proc."""
    children: dict[int, list[int]] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue
        # the command name may hold spaces and parentheses; fields resume after the last ")"
        fields = text[text.rfind(")") + 2:].split()
        if fields and fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(int(stat.parent.name))
    found, todo = [], [os.getpid()]
    while todo:
        for pid in children.get(todo.pop(), []):
            found.append(pid)
            todo.append(pid)
    return found


def _reap() -> bool:
    """Reap every child that has ended; True while any child is left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


def _end_all() -> None:
    deadline = time.monotonic() + GRACE_S
    while _reap() and time.monotonic() < deadline:
        time.sleep(0.01)
    while True:
        for pid in _descendants():
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        if not _reap() and not _descendants():
            return
        time.sleep(0.01)


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def supervise(script: str, argv: list[str]) -> int:
    """Run `script` with `argv` as a child and return its exit code once it and
    every process it started have ended."""
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _stop)
    _become_subreaper()
    code = 1
    try:
        child = subprocess.Popen([sys.executable, script, *argv],
                                 env=dict(os.environ, **{CHILD_ENV: "1"}))
        code = child.wait()
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            signal.signal(signum, signal.SIG_IGN)
        _end_all()
    return code
