"""The benchmark's definition: workloads, metrics and their bounds.

    python3 perfbench/manifest.py     # (re)write BENCHMARK.json

``BENCHMARK.json`` at the repository root is generated from this file so
that the names the benchmark prints and the names the manifest declares
cannot drift apart.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reduce import PER_LAYER  # noqa: E402

#: seconds one run measures
RUN_SECONDS = 30

#: (name, why) of every workload in BENCHMARK.json
WORKLOADS: list[tuple[str, str]] = [
    ("sweep-fig10",
     "the paper's own Fig. 10 study on an nproc-job process pool: experiments, "
     "session, PRO core, database and noise do all the work; no socket, server or "
     "WAL runs"),
    ("serve-wide",
     "32 GS2 sessions at K=3 doing 64-wide binary rounds: codec, array ops, PRO "
     "ask/tell and large WAL records dominate; the JSON path is bypassed"),
    ("fleet-churn",
     "closed-loop short jobs (locate, open, register, 3 width-1 JSON rounds, close) "
     "via a coordinator and 2 WAL shards: session lifecycle, routing and op_fetch/"
     "op_report dominate"),
]

#: (name, why it is not in BENCHMARK.json) of the workloads the command
#: also runs.  On a 2-vCPU shared virtual machine their figures did not
#: repeat: over ten seeds the interquartile range over the median reached
#: 0.71 (serve-narrow rounds/s) and 0.83 (fleet-open median job latency),
#: while no bound may exceed 0.25.  fleet-churn runs fleet-open's jobs
#: closed-loop, so its layers stay measured.
UNBOUNDED_WORKLOADS: list[tuple[str, str]] = [
    ("serve-narrow",
     "256 sessions doing width-1 JSON fetch/report rounds over nproc connections: "
     "per-message decode, dispatch, admission and one WAL commit per round dominate"),
    ("fleet-open",
     "fleet-churn's jobs arriving open-loop (Poisson, 50/s): latency from the "
     "scheduled arrival, and the load generator's own lag"),
]

#: (name, unit, better, bound) of every end-to-end metric
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
]


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    path = HERE.parent / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
    print(f"wrote {path.name}")
