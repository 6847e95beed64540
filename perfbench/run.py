"""The benchmark of the tuning stack: one command, five workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Workloads (``perfbench/manifest.py`` says why each exists; the first
three are in ``BENCHMARK.json``, the last two are listed in
``UNBOUNDED_WORKLOADS`` there):

* ``sweep-fig10``  — the offline Fig. 10 study on a process pool;
* ``serve-wide``   — 32 sessions doing 64-wide binary rounds on GS2;
* ``fleet-churn``  — closed-loop short jobs through a coordinator and shards;
* ``serve-narrow`` — 256 sessions doing width-1 JSON rounds on one server;
* ``fleet-open``   — the same jobs as ``fleet-churn``, arriving open-loop.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload twice for half the time each, untraced
then traced, and reports the per-layer metrics of the traced half plus
the tracing overhead between the two.  Every run checks its outputs,
prints each metric with its unit and sample count, writes a record with
provenance under ``.perfbench/records/`` and prints, as its last line,
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import manifest  # noqa: E402

WORKLOADS = tuple(
    name for name, _why in manifest.WORKLOADS + manifest.UNBOUNDED_WORKLOADS
)
#: how many times a run sets its workload up; setup_s is their median
SETUPS = 5
#: a run whose failed share exceeds this is not correct
ERROR_BUDGET = 0.005
#: what one unit of work is called, per workload
UNIT_NAMES = {
    "sweep-fig10": ("trials_per_s", "trial"),
    "serve-narrow": ("rounds_per_s", "round"),
    "serve-wide": ("rounds_per_s", "round"),
    "fleet-churn": ("jobs_per_s", "job"),
    "fleet-open": ("jobs_per_s", "job"),
}


def _provenance(seed: int, workload: str, trace: int) -> dict:
    import numpy

    from common import NPROC

    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "fresh": True,
        "taken_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _run(workload: str, *, seed: int, seconds: float, workdir: Path,
         setups: int, traced: bool):
    """One measured run of *workload*."""
    workdir.mkdir(parents=True, exist_ok=True)
    spans_dir = workdir / "spans" if traced else None
    if spans_dir is not None:
        spans_dir.mkdir(parents=True, exist_ok=True)
    recorder = None
    if traced:
        from spans import SpanRecorder

        recorder = SpanRecorder()
    if workload == "sweep-fig10":
        from sweep import run_sweep_workload

        return run_sweep_workload(
            seed=seed, seconds=seconds, workdir=workdir, setups=setups,
            state_dir=ROOT / ".perfbench" / "state",
            recorder=recorder, spans_dir=spans_dir,
        )
    if recorder is not None:
        from layers import install_client

        install_client(recorder)
    try:
        if workload in ("fleet-churn", "fleet-open"):
            from fleet import run_fleet

            result = run_fleet(seed=seed, seconds=seconds, workdir=workdir,
                               setups=setups, open_loop=workload == "fleet-open",
                               spans_dir=spans_dir)
        else:
            from serve import NARROW, WIDE, run_serve

            spec = NARROW if workload == "serve-narrow" else WIDE
            result = run_serve(spec, seed=seed, seconds=seconds, workdir=workdir,
                               setups=setups, spans_dir=spans_dir)
    finally:
        if recorder is not None:
            recorder.unwrap_all()
    if recorder is not None:
        client_file = spans_dir / "client.json"
        recorder.dump(client_file)
        result.span_files.append(client_file)
    return result


def _end_to_end(result) -> dict[str, dict]:
    """Every end-to-end figure of a run: the manifest's metrics plus the
    p99 and the highest supported tail, which are printed and recorded."""
    from stats import summarize

    ledger = result.ledger
    lat = summarize([x * 1e3 for x in ledger.latencies_s], n_failed=ledger.failed)
    return {
        "setup_s": {"value": statistics.median(result.setup_s), "unit": "s",
                    "n": len(result.setup_s)},
        "throughput_per_s": {"value": result.ops_per_s, "unit": "1/s", "n": ledger.ok},
        "latency_p50_ms": {"value": lat.get("p50", 0.0), "unit": "ms", "n": lat["n"]},
        "latency_p90_ms": {"value": lat.get("p90", 0.0), "unit": "ms", "n": lat["n"]},
        "latency_p99_ms": {"value": lat.get("p99", 0.0), "unit": "ms", "n": lat["n"]},
        "latency_tail_ms": {"value": lat.get("tail", 0.0), "unit": "ms", "n": lat["n"],
                            "pct": lat.get("tail_pct")},
        "peak_rss_mb": {"value": result.peak_rss_mb, "unit": "MiB", "n": 1},
    }


def _print_result(workload: str, result, metrics: dict, label: str) -> None:
    rate_name, unit = UNIT_NAMES[workload]
    ledger = result.ledger
    aliases = {
        "throughput_per_s": rate_name,
        "latency_p50_ms": f"{unit}_p50_ms",
        "latency_p90_ms": f"{unit}_p90_ms",
        "latency_p99_ms": f"{unit}_p99_ms",
        "latency_tail_ms": f"{unit} p{metrics['latency_tail_ms']['pct']}, highest "
                           "percentile with >=10 beyond",
    }
    print(f"== {workload} ({label}) ==")
    for name, m in metrics.items():
        shown = f"{name} [{aliases[name]}]" if name in aliases else name
        print(f"  {shown:<36} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")
    print(f"  {'fail_frac':<36} {ledger.fail_frac:>14.6g} frac   "
          f"n={ledger.attempted} (refused {ledger.refused}, errors "
          f"{ledger.errors}, wrong {ledger.wrong})")
    for key, value in sorted(result.census.items()):
        print(f"  {key:<36} {value:>14.6g}")
    for check in result.checks:
        print(f"  check {'PASS' if check.ok else 'FAIL'}: {check.name} — {check.detail}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            main(["--workload", name, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)])
            for name in WORKLOADS
        ]
        return max(codes)
    sys.path.insert(1, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)
    provenance = _provenance(args.seed, args.workload, args.trace)
    try:
        record = {"provenance": provenance}
        if args.trace:
            half = args.seconds / 2
            plain = _run(args.workload, seed=args.seed, seconds=half,
                         workdir=workdir / "plain", setups=1, traced=False)
            traced = _run(args.workload, seed=args.seed, seconds=half,
                          workdir=workdir / "traced", setups=1, traced=True)
            outcome = _report_traced(args.workload, plain, traced, record)
        else:
            result = _run(args.workload, seed=args.seed, seconds=args.seconds,
                          workdir=workdir, setups=SETUPS, traced=False)
            outcome = _report_plain(args.workload, result, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome is None:
        return 3
    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(outcome))
    return 0


def _correct(result) -> bool:
    return all(c.ok for c in result.checks) and result.ledger.fail_frac <= ERROR_BUDGET


def _report_plain(workload: str, result, record: dict) -> dict | None:
    metrics = _end_to_end(result)
    _print_result(workload, result, metrics, "untraced")
    record["end_to_end"] = metrics
    record["checks"] = [vars(c) for c in result.checks]
    record["census"] = result.census
    if result.invalid is not None:
        print(f"run invalid, no result reported: {result.invalid}", file=sys.stderr)
        return None
    return {
        "correct": _correct(result),
        "attempted": result.ledger.attempted,
        "failed": result.ledger.failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": unit}
            for name, unit, _better, _bound in manifest.END_TO_END
        },
    }


def _report_traced(workload: str, plain, traced, record: dict) -> dict | None:
    from reduce import CLOSURE_TOLERANCE, PER_LAYER, UNLISTED_LAYER, per_layer

    base = _end_to_end(plain)
    _print_result(workload, plain, base, "untraced half")
    traced_e2e = _end_to_end(traced)
    _print_result(workload, traced, traced_e2e, "traced half")
    layer, details = per_layer(traced.span_files, traced.window)
    known = {name for name, _, _ in PER_LAYER + UNLISTED_LAYER}
    layer.update({k: v for k, v in traced.layer.items() if k in known})
    layer.update(traced.census)
    if workload == "fleet-open":
        # Open loop: throughput follows the offered rate, so the overhead
        # shows in latency instead.
        overhead = (traced_e2e["latency_p50_ms"]["value"]
                    / base["latency_p50_ms"]["value"] - 1.0)
    else:
        overhead = 1.0 - traced.ops_per_s / plain.ops_per_s
    layer["obs.trace_overhead_frac"] = overhead
    closure = details["closure"]
    print(f"== {workload} per-layer (traced half) ==")
    shown = PER_LAYER + [m for m in UNLISTED_LAYER if m[0] in layer]
    for name, unit, _better in shown:
        print(f"  {name:<36} {layer.get(name, 0.0):>14.6g} {unit}")
    print(f"  closure: {closure['chunks']} chunks, stage sum "
          f"{closure['stage_sum_s']:.6f} s vs chunk wall "
          f"{closure['wall_s']:.6f} s, residual {closure['residual_frac']:.3e} "
          f"(tolerance {CLOSURE_TOLERANCE:g}) — {'PASS' if closure['ok'] else 'FAIL'}")
    print(f"  client.net_gap_s over {details['net_gap']['matched']} matched cseqs: "
          f"{details['net_gap']['mean_s']:.6g} s")
    record["end_to_end_untraced_half"] = base
    record["per_layer"] = layer
    record["closure"] = closure
    record["net_gap"] = details["net_gap"]
    record["checks"] = [vars(c) for c in plain.checks + traced.checks]
    for half in (plain, traced):
        if half.invalid is not None:
            print(f"run invalid, no result reported: {half.invalid}", file=sys.stderr)
            return None
    return {
        "correct": _correct(plain) and _correct(traced) and closure["ok"],
        "attempted": plain.ledger.attempted + traced.ledger.attempted,
        "failed": plain.ledger.failed + traced.ledger.failed,
        "metrics": {
            name: {"value": float(layer.get(name, 0.0)), "unit": unit}
            for name, unit, _ in PER_LAYER
        },
    }


if __name__ == "__main__":
    from procs import stop_resource_tracker

    try:
        code = main()
    finally:
        stop_resource_tracker()
    sys.exit(code)
