"""Fresh-process runs: wall time, exit code, output and peak memory."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

CHILD_TIMEOUT_S = 120.0


@dataclass
class ChildRun:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict, cwd: Path) -> ChildRun:
    """Run argv to completion; reap it with wait4 to read its peak RSS.

    The child is killed when it outlives CHILD_TIMEOUT_S; it is always
    reaped before this returns.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    # os.kill, not Popen.send_signal: the latter polls and could reap
    # the child before wait4 reads its usage.
    timer = threading.Timer(CHILD_TIMEOUT_S, _kill, (proc.pid,))
    timer.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
        proc.stderr.close()
    wall = perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return ChildRun(code, wall, usage.ru_maxrss / 1024.0, out,
                    err[0] if err else b"")


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def python_child(code: str, env: dict, cwd: Path) -> ChildRun:
    return run_child([sys.executable, "-c", code], env, cwd)
