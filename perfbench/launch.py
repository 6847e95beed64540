"""Process entry point for the servers the benchmark starts.

    python perfbench/launch.py [--spans FILE] serve <repro serve args...>
    python perfbench/launch.py [--spans FILE] coordinator --port-file F --wal-dir D [--sync MODE]

``serve`` runs the program's own CLI, ``repro.cli.main(["serve", ...])``.
``coordinator`` hosts a :class:`repro.fleet.coordinator.FleetCoordinator`
with a WAL-backed registry behind the asyncio TCP transport, until
interrupted.  With ``--spans`` the
layer wrappers of :mod:`layers` are installed first and every span is
written to FILE when the process is interrupted (SIGINT) and shuts down.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def _coordinator(argv: list[str]) -> int:
    from repro.experiments.common import tuner_factory
    from repro.fleet.coordinator import FleetCoordinator
    from repro.harmony.aio import AsyncTcpServerTransport
    from repro.obs import MetricsRegistry

    parser = argparse.ArgumentParser(prog="launch.py coordinator")
    parser.add_argument("--port-file", type=Path, required=True)
    parser.add_argument("--wal-dir", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sync", choices=["always", "batch", "off"], required=True)
    args = parser.parse_args(argv)
    coordinator = FleetCoordinator(
        tuner_factory("pro", rng=args.seed),
        lease_s=5.0,
        wal_dir=args.wal_dir,
        sync=args.sync,
        metrics=MetricsRegistry(),
    )
    transport = AsyncTcpServerTransport(coordinator, host="127.0.0.1", port=0)
    transport.start()
    coordinator.start_lease_checker()
    args.port_file.write_text(f"{transport.port}\n")
    try:
        while True:
            time.sleep(0.1)
    except KeyboardInterrupt:
        pass
    finally:
        transport.stop()
        coordinator.stop()
    return 0


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    role, rest = argv[0], argv[1:]
    recorder = SpanRecorder() if spans_path else None
    if recorder is not None:
        if role == "serve":
            layers.install_server(recorder)
        else:
            layers.install_coordinator(recorder)
    try:
        if role == "serve":
            from repro.cli import main as repro_main

            return repro_main(["serve", *rest])
        return _coordinator(rest)
    finally:
        if recorder is not None:
            recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
