"""The one writer of ``BENCH_runner.json`` shared by every bench_smoke test.

:func:`update_bench_json` read-modify-writes one section, so the smoke
tests compose in any order; :func:`provenance` stamps a section with where
its numbers came from.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_runner.json"


def update_bench_json(section: str, payload: dict, *, merge: bool = False) -> None:
    """Write *payload* as *section* of ``BENCH_runner.json``.

    ``merge=True`` updates only *payload*'s keys, for arms that share a
    section with another test (the serving matrix and the report-replay
    arm under ``server``, the scaling and skew arms under ``fleet``)."""
    data = {}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text())
    data["schema"] = 1
    data["cpu_count"] = os.cpu_count()
    data[section] = {**data.get(section, {}), **payload} if merge else payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"\n[bench_smoke] {section} -> {BENCH_JSON}")


def provenance() -> dict:
    """Where a measurement came from: commit, core count, Python version."""

    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(
                ["git", *args], cwd=BENCH_JSON.parent, capture_output=True,
                text=True, timeout=10, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip()

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": git("rev-parse", "--short", "HEAD"),
        "dirty": None if status is None else bool(status),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "fresh": True,
    }
