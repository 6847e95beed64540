"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import run  # noqa: E402
from common import RunResult, attempt  # noqa: E402
from stats import OpLedger, open_loop_verdict, summarize, tail_percentile  # noqa: E402

from repro.harmony.client import TuningClient  # noqa: E402
from repro.harmony.protocol import busy_response  # noqa: E402
from repro.harmony.transport import Transport  # noqa: E402


# -- the tail helper -----------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0  # exactly 10 beyond p99
    assert tail_percentile(999) == 90.0  # 9 beyond p99 is not enough
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(100_000) == 99.99
    assert tail_percentile(100) == 90.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None


def test_summarize_reports_the_supported_tail_with_its_count():
    values = [float(i) for i in range(1, 1001)]
    out = summarize(values)
    assert out["n"] == 1000
    assert out["tail_pct"] == 99.0
    assert out["tail"] == out["p99"]
    assert out["p50"] == 500.5


# -- fail_frac -----------------------------------------------------------------


class _SheddingTransport(Transport):
    """Answers every request with a busy shed (retry immediately)."""

    def __init__(self) -> None:
        self.requests = 0

    def request(self, message):
        self.requests += 1
        response = busy_response(0.0)
        if "seq" in message:
            response["seq"] = message["seq"]
        return response


def test_fail_frac_counts_refusals_past_the_retry_budget():
    transport = _SheddingTransport()
    client = TuningClient(transport, session="s", busy_retries=3, busy_backoff_cap=0.0)
    ledger = OpLedger()
    done, _ = attempt(ledger, lambda: client.status())
    assert not done
    assert transport.requests == 4  # the first try plus three retries
    assert client.busy_seen == 3
    assert attempt(ledger, lambda: 42) == (True, 42)
    assert (ledger.attempted, ledger.refused, ledger.failed) == (2, 1, 1)
    assert ledger.fail_frac == 0.5
    # The refused operation misses every latency limit.
    assert math.isinf(summarize(ledger.latencies_s, n_failed=ledger.failed)["p99"])


def test_untimed_operations_count_only_when_they_fail():
    ledger = OpLedger()
    assert attempt(ledger, lambda: 1, timed=False) == (True, 1)

    def lost():
        raise ConnectionError("peer went away")

    assert attempt(ledger, lost, timed=False) == (False, None)
    assert (ledger.attempted, ledger.ok, ledger.errors) == (2, 0, 1)
    assert ledger.latencies_s == [] and ledger.fail_frac == 0.5


def test_wrong_outputs_count_as_failed():
    ledger = OpLedger()
    for _ in range(4):
        ledger.record_ok(0.001)
    ledger.record_wrong()
    assert ledger.failed == 1 and ledger.fail_frac == 0.25


# -- open-loop validity --------------------------------------------------------


def test_lagging_generator_is_invalid():
    ok, _ = open_loop_verdict([0.001] * 200, bound_p99_s=0.02, bound_max_s=0.5)
    assert ok
    ok, why = open_loop_verdict([0.001] * 190 + [0.05] * 10,
                                bound_p99_s=0.02, bound_max_s=0.5)
    assert not ok and "p99" in why
    ok, why = open_loop_verdict([0.001] * 999 + [0.9], bound_p99_s=0.02, bound_max_s=0.5)
    assert not ok and "max" in why


def test_invalid_open_loop_run_is_not_reported(capsys):
    ledger = OpLedger()
    for _ in range(100):
        ledger.record_ok(0.01)
    result = RunResult(
        unit="job", setup_s=[1.0], wall_s=1.0, ledger=ledger, peak_rss_mb=1.0,
        window=(0.0, 1.0), invalid="generator lag p99 30.0 ms > 20 ms",
    )
    assert run._report_plain("fleet-open", result, {}) is None
    assert "no result reported" in capsys.readouterr().err
    result.invalid = None
    reported = run._report_plain("fleet-open", result, {})
    assert reported["correct"] and reported["attempted"] == 100


# -- the closure check ---------------------------------------------------------


def _chunk(pid: int, chunk: int, bounds: dict) -> list[tuple]:
    """Stage spans of one served chunk, as :func:`spans.load_dumps` gives them."""
    return [
        ((pid, n), name, lo, hi, None, chunk, (pid, 1), {})
        for n, (name, (lo, hi)) in enumerate(bounds.items())
    ]


def test_closure_residual_is_the_wall_time_no_stage_covers():
    from reduce import _closure

    stages = {
        "transport.split": (0.0, 1.0),
        "transport.prepare": (1.0, 2.0),
        "admission.plan": (2.0, 3.0),
        "transport.respond": (4.0, 6.0),  # 1.0 of pool wait before it
        "admission.finish": (8.0, 10.0),  # 2.0 unaccounted before it
    }
    by_name: dict = {}
    for span in _chunk(7, 1, stages):
        by_name.setdefault(span[1], []).append(span)
    closure = _closure(by_name)
    assert closure["chunks"] == 1
    assert closure["wall_s"] == 10.0 and closure["stage_sum_s"] == 8.0
    assert closure["residual_frac"] == 0.2 and closure["ok"]
    # Spans matched to the wrong chunk overlap: the stages exceed the wall.
    by_name["transport.respond"][0] = by_name["transport.respond"][0][:2] + (
        0.5, 9.5) + by_name["transport.respond"][0][4:]
    assert not _closure(by_name)["ok"]


# -- record comparison ---------------------------------------------------------


def _record(nproc: int, value: float) -> dict:
    return {
        "provenance": {"workload": "serve-wide", "nproc": nproc},
        "end_to_end": {"throughput_per_s": {"value": value, "unit": "1/s"}},
    }


def test_compare_refuses_records_from_different_nproc():
    import pytest

    from compare import compare

    lines = compare([_record(2, 100.0)], [_record(2, 110.0)])
    assert lines and "+10.0%" in lines[0]
    with pytest.raises(ValueError, match="nproc"):
        compare([_record(1, 100.0)], [_record(2, 110.0)])


# -- processes left behind -----------------------------------------------------


def test_resource_tracker_is_stopped_and_reaped():
    import os

    from multiprocessing import resource_tracker

    from procs import stop_resource_tracker

    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    stop_resource_tracker()
    assert resource_tracker._resource_tracker._pid is None
    assert not Path(f"/proc/{pid}").exists()
    stop_resource_tracker()  # stopping it again is harmless
