"""The embedded_dynamic workload: in-process DyTIS on arriving taxi keys.

Set-up bulk-loads the first half of a taxi-like (``TX``) key sequence
into ``DyTIS()`` with the default config.  The timed, single-threaded
trace then interleaves, at about 50/40/10:

- inserts of the second half, in arrival order (time-advancing keys
  force the splits, remaps and doublings update-only traffic never
  triggers),
- uniform point gets over the keys inserted so far,
- 100-key scans starting at a uniformly chosen inserted key.

Every get must return its key's value, every scan must start at its
start key and return strictly increasing keys, and
``check_invariants()`` runs after the timed window.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List, Optional

import numpy as np

import common

INSERT, GET, SCAN = 1, 0, 2
MIX = (0.5, 0.4, 0.1)  # insert, get, scan
SCAN_LEN = 100
#: Ops drawn at a time.  The trace is drawn as the run consumes it, so
#: its memory neither grows with ``--seconds`` nor inflates the peak
#: resident set the workload reports.
CHUNK = 4096
#: ``peak_rss_mb`` is read once the timed window has inserted this many
#: keys, not at its end: how many keys a window inserts follows the
#: host's speed, and the index's size with it.
RSS_MARK = 400_000
#: Host speed is sampled this long before and after each build.
SPEED_SAMPLE_S = 0.2


class Trace:
    """The op stream of one seed: op kinds and the uniform draws that
    pick get/scan keys, drawn a chunk at a time."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def next_chunk(self):
        u = self.rng.random(CHUNK)
        kinds = np.where(u < MIX[0], INSERT, np.where(u < MIX[0] + MIX[1], GET, SCAN))
        return kinds.tolist(), self.rng.random(CHUNK).tolist()


def scan_ok(start: int, pairs) -> bool:
    """A scan from a present key starts there and strictly ascends."""
    if not pairs or pairs[0][0] != start or len(pairs) > SCAN_LEN:
        return False
    keys = [k for k, _ in pairs]
    return all(a < b for a, b in zip(keys, keys[1:]))


class Cursor:
    """Where a run is in its trace and its keys.

    ``order`` holds the bulk-loaded keys, then the arriving ones in
    arrival order, so the keys inserted so far are always
    ``order[:present]``.
    """

    def __init__(self, seed: int, order: np.ndarray, bulk: int):
        self.trace = Trace(seed)
        self.kinds: List[int] = []
        self.draws: List[float] = []
        self.pos = 0  # next op in the current chunk
        self.order = order
        self.present = bulk
        self.exhausted = False
        self.rss_mark = bulk + RSS_MARK
        self.peak_rss_mb: Optional[float] = None


def drive(index, cur: Cursor, seconds: float) -> dict:
    """Run the trace against ``index`` from ``cur`` until ``seconds`` pass.

    Returns latencies (ns) per op kind, ops done, and wrong answers.
    """
    # Compact arrays: samples are harness memory, kept out of the peak.
    lat: Dict[int, array] = {k: array("q") for k in (INSERT, GET, SCAN)}
    get, insert, scan = index.get, index.insert, index.scan
    key_at = cur.order.item  # a Python int, as callers pass
    n_keys = len(cur.order)
    clock = perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    kinds, draws, i = cur.kinds, cur.draws, cur.pos
    present = present0 = cur.present
    rss_mark = cur.rss_mark
    wrong = 0
    done = 0
    while done & 255 or clock() < deadline:
        if i == len(kinds):
            kinds, draws = cur.trace.next_chunk()
            i = 0
        kind = kinds[i]
        if kind == INSERT:
            if present == n_keys:
                cur.exhausted = True
                break
            key = key_at(present)
            t = clock()
            insert(key, key)
            lat[INSERT].append(clock() - t)
            present += 1
            if present == rss_mark:
                cur.peak_rss_mb = common.peak_rss_mb([os.getpid()])
        elif kind == GET:
            key = key_at(int(draws[i] * present))
            t = clock()
            value = get(key)
            lat[GET].append(clock() - t)
            if value != key:
                wrong += 1
        else:
            key = key_at(int(draws[i] * present))
            t = clock()
            pairs = scan(key, SCAN_LEN)
            lat[SCAN].append(clock() - t)
            if not scan_ok(key, pairs):
                wrong += 1
        i += 1
        done += 1
    cur.kinds, cur.draws, cur.pos = kinds, draws, i
    cur.present = present
    return {"lat": lat, "ops": done, "wrong": wrong,
            "inserts": present - present0}


def _timed(index, seed, order, bulk, seconds) -> dict:
    """The timed window in one-second parts, each with its CPU and wall
    time and the host-speed factor measured between its slices."""
    cur = Cursor(seed, order, bulk)
    n_parts = max(1, round(seconds))
    slice_s = seconds / n_parts / common.SLICES
    parts = []
    with common.quiesced_gc():
        for _ in range(n_parts):
            part = {"lat": {k: array("q") for k in (INSERT, GET, SCAN)},
                    "ops": 0, "wrong": 0, "inserts": 0, "wall": 0.0, "cpu": 0.0}
            speed = common.HostSpeed()
            for _ in range(common.SLICES):
                cpu0, t0 = time.process_time(), time.perf_counter()
                done = drive(index, cur, slice_s * (1 - common.REF_SHARE))
                part["wall"] += time.perf_counter() - t0
                part["cpu"] += time.process_time() - cpu0
                for k in ("ops", "wrong", "inserts"):
                    part[k] += done[k]
                for k, samples in done["lat"].items():
                    part["lat"][k].extend(samples)
                speed.sample(slice_s * common.REF_SHARE)
                if cur.exhausted:
                    break
            part["speed"] = speed.factor
            parts.append(part)
            if cur.exhausted:
                break
    return {
        "parts": parts,
        "lat": {k: array("q", b"".join(p["lat"][k].tobytes() for p in parts))
                for k in (INSERT, GET, SCAN)},
        **{k: sum(p[k] for p in parts) for k in ("ops", "wrong", "inserts", "wall", "cpu")},
        "exhausted": cur.exhausted,
        "peak_rss_mb": cur.peak_rss_mb,
    }


def _build(bulk: np.ndarray, obs=None):
    """``DyTIS()`` bulk-loaded with ``bulk`` (as Python ints, the way
    callers hold keys); returns it, the CPU seconds the build took at
    the reference speed, the host-speed factor (sampled just before and
    just after) and the build's wall seconds."""
    from repro.core import DyTIS

    keys = bulk.tolist()
    speed = common.HostSpeed()
    with common.quiesced_gc():
        speed.sample(SPEED_SAMPLE_S)
        t0, c0 = time.perf_counter(), time.process_time()
        index = DyTIS(obs=obs)
        index.bulk_load(keys, keys)
        cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        speed.sample(SPEED_SAMPLE_S)
    return index, cpu / speed.factor, speed.factor, wall


def make_keys(n_keys: int, tmp: Path) -> np.ndarray:
    """The taxi-like key set, generated in a child process so that the
    generator's temporaries never count in this process's peak
    resident set: the workload's ``peak_rss_mb`` is then the index's
    memory on top of a small fixed floor."""
    path = tmp / "keys.npy"
    code = ("import sys, numpy as np; sys.path.insert(0, sys.argv[1]); "
            "from repro.datasets.generators import generate; "
            "np.save(sys.argv[2], generate('TX', int(sys.argv[3]), "
            "seed=int(sys.argv[4])))")
    subprocess.run([sys.executable, "-c", code, str(common.SRC), str(path),
                    str(n_keys), str(common.DATA_SEED)], check=True)
    return np.load(path)


def run(seed: int, seconds: float, trace: bool, n_keys: int = 3_600_000,
        setups: int = 5) -> dict:
    """Run the workload; returns a dict for ``run.py`` to report.

    The second half of the keys bounds the inserts; a run that runs
    out of them ends early and reports ``exhausted``.  With 1.8M
    arriving keys a 30-second run on a 2-vCPU Xeon virtual machine
    inserts 1.0-1.3M of them, which leaves room for a faster index.  The run stays
    on one CPU, so the host speed sampled between slices is that of
    the CPU the work ran on.
    """
    with common.on_cpu(common.cpu_pair()[0]):
        return _run(seed, seconds, trace, n_keys, setups)


def _run(seed, seconds, trace, n_keys, setups) -> dict:
    with common.run_dir("embedded_dynamic") as tmp:
        keys = make_keys(n_keys, tmp)
    half = len(keys) // 2
    order = np.concatenate([np.sort(keys[:half]), keys[half:]])
    del keys
    bulk = order[:half]
    rep: dict = {"keys": len(order), "bulk_keys": half,
                 "harness_rss_mb": common.peak_rss_mb([os.getpid()])}
    setup_s, setup_speed, setup_wall = [], [], []
    for _ in range(1 if trace else setups):
        index = None  # release the previous build before the next
        index, cpu, factor, wall = _build(bulk)
        setup_s.append(cpu)
        setup_speed.append(factor)
        setup_wall.append(wall)
    rep.update({"storage": index.config.storage, "setup_samples_s": setup_s,
                "setup_speed": setup_speed, "setup_wall_s": setup_wall})

    if trace:
        from repro.obs import Observability
        from spans import Tracer, install_core_spans

        base = _timed(index, seed, order, half, seconds / 2)
        rep["untraced"] = base
        index = None
        obs = Observability()
        index = _build(bulk, obs)[0]
        stats0 = dict(vars(index.stats))
        tracer = Tracer()
        install_core_spans(tracer)
        try:
            win = _timed(index, seed, order, half, seconds / 2)
        finally:
            tracer.uninstall()
        rep["spans"] = tracer.summary()
        rep["stats_delta"] = {
            k: v - stats0[k] for k, v in vars(index.stats).items()
        }
        rep["probes"] = obs.probes
    else:
        win = _timed(index, seed, order, half, seconds)
    rep["win"] = win
    rep["index_mb"] = index.memory_bytes() / 2**20
    rep["bytes_per_key"] = index.memory_bytes() / len(index)
    t0 = time.perf_counter()
    invariant_error: Optional[str] = None
    try:
        index.check_invariants()
    except AssertionError as exc:
        invariant_error = str(exc) or "check_invariants failed"
    if len(index) != half + win["inserts"]:
        invariant_error = f"len {len(index)} != {half + win['inserts']}"
    rep["invariants_s"] = time.perf_counter() - t0
    rep["invariant_error"] = invariant_error
    rep["rss_mark_reached"] = win["peak_rss_mb"] is not None
    rep["peak_rss_mb"] = win["peak_rss_mb"] or common.peak_rss_mb([os.getpid()])
    return rep
