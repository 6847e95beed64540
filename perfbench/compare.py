"""Compare the end-to-end metrics of two sets of benchmark records.

    python3 perfbench/compare.py BASE_RECORD... -- NEW_RECORD...

Records are the JSON files ``perfbench/run.py`` writes under
``.perfbench/records/``.  For every workload and end-to-end metric the
medians of both sides are printed with their relative change.  Records
taken on hosts with different processor counts measure different
machines, so the comparison is refused when any two records disagree on
``nproc``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def _load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def _medians(records: list[dict]) -> dict[tuple[str, str], float]:
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for record in records:
        workload = record["provenance"]["workload"]
        for name, metric in record.get("end_to_end", {}).items():
            values[(workload, name)].append(metric["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def compare(base: list[dict], new: list[dict]) -> list[str]:
    """Lines of the comparison; raises ValueError on mismatched hosts."""
    nprocs = {r["provenance"]["nproc"] for r in base + new}
    if len(nprocs) > 1:
        raise ValueError(
            f"records were taken with different nproc {sorted(nprocs)}; "
            "they measure different machines and are not compared"
        )
    before, after = _medians(base), _medians(new)
    lines = []
    for key in sorted(before.keys() & after.keys()):
        b, a = before[key], after[key]
        change = (a - b) / b if b else float("nan")
        lines.append(f"{key[0]:<14} {key[1]:<18} {b:>12.6g} -> {a:>12.6g}  {change:+.1%}")
    return lines


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    cut = argv.index("--")
    try:
        lines = compare(_load(argv[:cut]), _load(argv[cut + 1:]))
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
