"""Read-only record of the machine and the code a result was measured on."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path


def git_sha(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(src: Path) -> str:
    """sha256 over the relative paths and bytes of the files under ``src``."""
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def cpu_times() -> list | None:
    """Aggregate jiffies from /proc/stat: user nice system idle iowait irq softirq steal."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(x) for x in fields[1:9]] if fields and fields[0] == "cpu" else None


def steal_delta(before: list | None, after: list | None) -> dict | None:
    if before is None or after is None:
        return None
    diff = [b - a for a, b in zip(before, after)]
    total = sum(diff)
    return {
        "steal_s": diff[7] / os.sysconf("SC_CLK_TCK"),
        "steal_share": diff[7] / total if total else 0.0,
    }


def environment(root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "src_sha256": tree_digest(root / "src"),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg": list(os.getloadavg()),
    }
