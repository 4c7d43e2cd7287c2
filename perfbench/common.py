"""Shared plumbing: repository paths, statistics, serving processes, provenance.

Everything the benchmark writes lands under ``.perfbench_work/`` at the
root of the checkout and is removed when the run ends.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import platform
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"


def require_source() -> None:
    """Put ``src/`` on ``sys.path``; exit non-zero when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source under {SRC}; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_ok(count: int, q: float) -> bool:
    """A percentile is reportable only with >= 10 samples beyond it."""
    return count * (100.0 - q) / 100.0 >= 10.0


def median(values) -> float:
    return percentile(values, 50.0)


def blocks(values, count: int = 5) -> list[list]:
    """``values`` cut into ``count`` consecutive runs of (nearly) equal length."""
    edges = [round(len(values) * i / count) for i in range(count + 1)]
    return [values[lo:hi] for lo, hi in zip(edges, edges[1:])]


def block_rate(t0: float, done, count: int = 5) -> float:
    """Completions per second: the median over ``count`` runs of
    consecutive completions, so that a pause of the host in one part of
    the window moves the figure less than it moves the overall mean."""
    rates, start = [], t0
    for block in blocks(sorted(done), count):
        rates.append(len(block) / (block[-1] - start))
        start = block[-1]
    return median(rates)


# --------------------------------------------------------------------- #
# serving processes
# --------------------------------------------------------------------- #


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _children(pid: int) -> list[int]:
    out = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return out


def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant."""
    seen, todo = [], [pid]
    while todo:
        p = todo.pop()
        if p in seen:
            continue
        seen.append(p)
        todo.extend(_children(p))
    return seen


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _ended(pid: int, timeout: float) -> bool:
    """Wait up to ``timeout`` seconds for ``pid`` to be gone."""
    deadline = time.perf_counter() + timeout
    while Path(f"/proc/{pid}").exists():
        if time.perf_counter() > deadline:
            return False
        time.sleep(0.02)
    return True


class ServingProcess:
    """One ``repro server`` / ``repro cluster`` process (or the traced launcher).

    Started from the checkout root with ``src`` on ``PYTHONPATH``, exactly
    as a user starts the program; stopped with SIGTERM (the program's
    graceful drain), then SIGKILL for anything still alive.
    """

    def __init__(self, argv: list[str], log_path: Path, port: int) -> None:
        self.argv = argv
        self.log_path = log_path
        self.port = port
        self.proc: subprocess.Popen | None = None
        self._log = None

    def start(self) -> "ServingProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            self.argv, cwd=ROOT, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )
        return self

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Poll ``/healthz`` until the listener answers."""
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serving process exited with {self.proc.returncode} during "
                    f"start-up; see {self.log_path}"
                )
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                conn.request("GET", "/healthz")
                status = conn.getresponse().status
                conn.close()
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError(f"serving process not ready after {timeout}s")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """Sum of peak resident sizes over the process and its descendants."""
        return sum(_vm_hwm_kb(p) for p in process_tree(self.proc.pid)) / 1024.0

    def stop(self, timeout: float = 60.0) -> None:
        if self.proc is None:
            return
        tree = process_tree(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        # Descendants (cluster workers) are stopped by the parent's drain;
        # anything left behind is killed so the run ends with no processes.
        for pid in tree[1:]:
            if not _ended(pid, 10.0):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
                _ended(pid, 10.0)
        if self._log is not None:
            self._log.close()
            self._log = None
        self.proc = None


# --------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------- #


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/self/mounts)."""
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def source_digest() -> str:
    """SHA-256 over ``src/`` (the checkout need not be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    # The ceiling keeps git from taking up a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def base_provenance(seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def dump_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
