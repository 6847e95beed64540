"""Start, watch and stop the server processes of one benchmark run."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

__all__ = ["Proc", "stop_resource_tracker", "vm_hwm_mb"]


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if it runs.

    The sweep's shared-memory broadcast starts the tracker as a child of
    this process.  Left alone it exits only after this process has, so
    nothing waits for it; stopping it here ends it while it is still ours.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Proc:
    """One ``launch.py`` subprocess: a ``repro serve`` or a coordinator.

    The process reports readiness by writing its port to *port_file*;
    :meth:`stop` interrupts it (SIGINT, the CLI's graceful drain) and
    waits for it to exit, killing it only if it does not.
    """

    def __init__(
        self,
        role_args: list[str],
        *,
        workdir: Path,
        tag: str,
        spans: Path | None = None,
    ) -> None:
        self.tag = tag
        self.port_file = workdir / f"{tag}.port"
        self.port_file.unlink(missing_ok=True)
        self.spans = spans
        cmd = [sys.executable, str(HERE / "launch.py")]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += role_args
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["TMPDIR"] = str(workdir)
        self._log = open(workdir / f"{tag}.log", "wb")
        self.popen = subprocess.Popen(
            cmd, stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=ROOT
        )
        self.port: int | None = None

    def wait_ready(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.popen.poll() is not None:
                raise RuntimeError(
                    f"{self.tag} exited with {self.popen.returncode} before "
                    f"listening; see {self._log.name}"
                )
            try:
                text = self.port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                self.port = int(text)
                return self.port
            time.sleep(0.01)
        raise TimeoutError(f"{self.tag} did not listen within {timeout}s")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.popen.pid)

    def stop(self, timeout: float = 20.0) -> int:
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGINT)
            try:
                self.popen.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait(timeout=10.0)
        self._log.close()
        return self.popen.returncode
