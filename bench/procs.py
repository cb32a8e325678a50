"""Process plumbing shared by the benchmark's drivers.

Every process the benchmark starts runs ``repro`` from the checkout's
``src`` and keeps its files inside the checkout: the compiled-kernel
cache and temporary files go under ``bench/.work`` instead of the system
temp directory.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path
from typing import Dict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"


def child_env() -> Dict[str, str]:
    """Environment for a benchmark child process."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]]
                                  if env.get("PYTHONPATH") else []))
    env["PYTHONUNBUFFERED"] = "1"
    env["COSCHED_KERNEL_CACHE"] = str(WORK / "kernels")
    env["TMPDIR"] = str(tmp)
    return env


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """Ask ``proc`` to finish (SIGTERM), kill it if it will not, and wait
    until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()

