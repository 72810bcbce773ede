"""Shared helpers: statistics, /proc accounting, host speed, GC
quiescing, the result line.

Everything here is workload-agnostic and side-effect free apart from
reading ``/proc`` and pinning the calling thread to a CPU; the
workloads in ``served.py`` and ``embedded.py`` build on it.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import platform
import shutil
import signal
import subprocess
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Repository root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Per-run scratch space lives inside the checkout and is removed after.
TMP_ROOT = ROOT / ".perfbench_tmp"

CLK_TCK = os.sysconf("SC_CLK_TCK")
#: Seed of every workload's key set.  ``--seed`` drives the operation
#: streams (which keys are read, written and scanned, and in what
#: order); the key sets stay fixed, because the index's cost -- the
#: insert tail above all, which sits on the cliff between plain and
#: structural inserts -- differs more between key sets than between
#: runs, and would otherwise swamp the run-to-run spread.
DATA_SEED = 0


# -- statistics ---------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


#: Latency samples per block; p99 of 1000 samples has 10 beyond it.
BLOCK = 1000


def timing_summary(samples: Sequence[int]) -> Dict[str, float]:
    """p50 and p99 (microseconds) of latency samples in completion order.

    The samples are cut into consecutive blocks of :data:`BLOCK`; each
    reported percentile is the median over blocks of that block's
    percentile, so a stall of a shared machine that hits a few blocks
    moves it little.  A tail percentile is only reported where at
    least ten samples lie beyond it, which every full block satisfies.
    ``p99_all_us`` is the plain p99 over all samples.
    """
    blocks = [samples[i : i + BLOCK] for i in range(0, len(samples), BLOCK)]
    if len(blocks) > 1 and len(blocks[-1]) < BLOCK:
        blocks.pop()  # a short tail block has too few samples beyond p99
    return {
        "p50_us": median(percentile(b, 50) for b in blocks) / 1e3,
        "p99_us": median(percentile(b, 99) for b in blocks) / 1e3,
        "p99_all_us": percentile(samples, 99) / 1e3,
        "n": len(samples),
        "blocks": len(blocks),
    }


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# -- process accounting -------------------------------------------------------


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # The command name (field 2) may contain spaces; split after it.
    return raw[raw.rindex(")") + 2 :].split()


def process_tree(root_pid: int) -> List[int]:
    """``root_pid`` and every live descendant (shard workers, trackers)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    tree, todo = [], [root_pid]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime are stat fields 14 and 15 (1-based).
            total += int(fields[11]) + int(fields[12])
    return total / CLK_TCK


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of VmHWM (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except (FileNotFoundError, ProcessLookupError):
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None and fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def reap_group(proc, graceful: bool, timeout: float = 20.0) -> None:
    """Stop a process group's leader, then make sure the group is gone.

    The benchmark starts each server with ``start_new_session=True``,
    so the server, its shard workers and its resource tracker share
    one group.  A graceful stop sends SIGTERM to the leader alone, so
    it can close its workers and release their shared memory itself;
    whatever is left after it exits (or after ``timeout``) is killed.
    Grandchildren are not ours to ``waitpid``, so their exit is
    observed by polling ``/proc`` until the group is empty.
    """
    pgid = proc.pid
    if graceful:
        with contextlib.suppress(ProcessLookupError):
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
    deadline = time.monotonic() + timeout
    while True:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, signal.SIGKILL)
        if proc.poll() is None:
            proc.wait(timeout=timeout)
        if not group_members(pgid) or time.monotonic() > deadline:
            break
        time.sleep(0.02)


# -- host speed ---------------------------------------------------------------

#: CPU seconds one :func:`reference_work` call takes at the reference
#: speed: about the middle of the range one vCPU of a shared 2-vCPU Xeon
#: virtual machine showed (0.45-0.8 ms).  CPU-time metrics are reported
#: at this speed.
REF_CALL_S = 0.00065
#: Each timed part is cut into this many slices; after each, the
#: reference runs for :data:`REF_SHARE` of the slice's wall time.
SLICES = 5
REF_SHARE = 1 / 6


def reference_work(n: int = 5000) -> None:
    """A fixed piece of interpreter work: dict stores and int arithmetic."""
    d = {}
    for i in range(n):
        d[i & 4095] = i * 3


class HostSpeed:
    """How slow the CPU running this thread is, against the reference.

    A shared virtual CPU's speed swings by up to 1.5x from one second
    to the next with its neighbours' load (with no steal time to show
    for it), and process CPU time swings with it.  Timing
    :func:`reference_work` on the same CPU, interleaved with the
    measured work, gives the factor that takes the swing back out.
    """

    def __init__(self):
        self.cpu = 0.0
        self.calls = 0

    def sample(self, seconds: float) -> None:
        """Run the reference for ``seconds`` of wall time (one call at least)."""
        c0, deadline = time.process_time(), time.perf_counter() + seconds
        while True:
            reference_work()
            self.calls += 1
            if time.perf_counter() >= deadline:
                break
        self.cpu += time.process_time() - c0

    @property
    def factor(self) -> float:
        """Reference CPU per call here / :data:`REF_CALL_S` (above 1: slow)."""
        return self.cpu / self.calls / REF_CALL_S if self.calls else 1.0


@contextlib.contextmanager
def on_cpu(cpu: int):
    """Run this thread on ``cpu`` alone for the block."""
    was = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, was)


def cpu_pair() -> tuple:
    """(server CPU, client CPU): two CPUs of this process's set, or
    the same one twice on a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


# -- hygiene ------------------------------------------------------------------


@contextlib.contextmanager
def quiesced_gc():
    """Collect pending garbage, then pause the collector while timing."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextlib.contextmanager
def run_dir(tag: str):
    """A fresh scratch directory inside the checkout, removed afterwards."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = TMP_ROOT / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir()
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()  # only succeeds once no run is using it


def environment() -> Dict[str, object]:
    """Machine and toolchain facts every result records."""
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


# -- the result line ----------------------------------------------------------


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, dict]
) -> Dict[str, object]:
    """The JSON object the benchmark prints as its last line."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
