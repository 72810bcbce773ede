"""Tests for the benchmark's own logic.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

The two end-to-end cases run the benchmark in ``--quick`` mode (small
inputs, one-second windows), so the whole file takes well under a
minute.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import served  # noqa: E402
import spans  # noqa: E402
from repro.server import frame  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- self time ----------------------------------------------------------------


def test_self_times_on_synthetic_tree():
    # root [0,100]: children a [10,40] and b [30,60] overlap on [30,40];
    # c [90,120] runs past its parent's end; g [15,25] is a's child.
    starts = [0, 10, 30, 90, 15]
    ends = [100, 40, 60, 120, 25]
    parents = [-1, 0, 0, 0, 1]
    got = spans.self_times(starts, ends, parents)
    # root: 100 - |[10,60] u [90,100]| = 100 - 60
    assert got == [40, 20, 30, 30, 10]


def test_self_times_sum_to_root_duration_without_overlap():
    starts = [0, 5, 20, 6, 8]
    ends = [50, 15, 45, 7, 12]
    parents = [-1, 0, 0, 1, 1]
    assert sum(spans.self_times(starts, ends, parents)) == 50


class _Layered:
    def outer(self, keys):
        return self.inner(keys) + [0]

    def inner(self, keys):
        return list(keys)


def test_tracer_charges_nested_calls_to_the_inner_layer():
    tracer = spans.Tracer()
    original = _Layered.__dict__["outer"]
    tracer.wrap(_Layered, "outer", "top", spans.n_keys)
    tracer.wrap(_Layered, "inner", "bottom", spans.n_keys)
    _Layered().outer([1, 2, 3])
    summary = tracer.summary()
    tracer.uninstall()
    assert _Layered.__dict__["outer"] is original
    top, bottom = summary["top"], summary["bottom"]
    assert (top["calls"], top["items"]) == (1, 3)
    assert (bottom["calls"], bottom["items"]) == (1, 3)
    assert top["self_ns"] == top["total_ns"] - bottom["total_ns"]
    assert bottom["self_ns"] == bottom["total_ns"]


# -- request encoding and reply checking --------------------------------------


class _Transport:
    def __init__(self):
        self.sent = []

    def write(self, data):
        self.sent.append(data)

    def close(self):
        self.closed = True


def _reply(rid: int, payload: bytes, op: int = frame.OP_OK) -> bytes:
    return frame.encode_frame(rid, op, payload)


def _drive_one_burst(kinds, keys, replies):
    """Feed ``replies`` to a Conn running a one-burst plan; its tally."""
    shadow = {k: b"%d" % k for k in set(keys)}

    async def go():
        conn = served.Conn(shadow)
        conn.transport = _Transport()
        plan = served.build_plan(
            1, 0, np.array(kinds), np.array(keys, dtype=np.uint64), 1, 2
        )
        done = conn.run(plan, None)
        blob = b"".join(replies(plan))
        # Arbitrary chunking must not matter.
        for i in range(0, len(blob), 7):
            conn.data_received(blob[i : i + 7])
        return await done

    return asyncio.run(go())


def test_checker_accepts_exact_replies_and_tracks_writes():
    kinds = [served.KIND_GET, served.KIND_WRITE, served.KIND_GET]
    keys = [11, 11, 11]

    def replies(plan):
        written = plan.vals[0][1]
        return [_reply(1, b"11"), _reply(2, b""), _reply(3, written)]

    tally = _drive_one_burst(kinds, keys, replies)
    assert (tally.completed, tally.wrong, tally.errors) == (3, 0, 0)


def test_checker_catches_a_planted_wrong_reply():
    kinds = [served.KIND_GET, served.KIND_WRITE, served.KIND_GET]
    keys = [11, 11, 11]

    def replies(plan):
        # The last GET returns the pre-write value: a lost update.
        return [_reply(1, b"11"), _reply(2, b""), _reply(3, b"11")]

    tally = _drive_one_burst(kinds, keys, replies)
    assert (tally.completed, tally.wrong, tally.errors) == (3, 1, 0)


def test_checker_counts_error_replies_and_wrong_ids():
    kinds = [served.KIND_GET, served.KIND_GET]
    keys = [4, 5]

    def replies(plan):
        return [
            _reply(1, frame.encode_err(frame.ERR_OP_FAILED, "x"), frame.OP_ERR),
            _reply(9, b"5"),
        ]

    tally = _drive_one_burst(kinds, keys, replies)
    assert (tally.completed, tally.wrong, tally.errors) == (2, 0, 2)


def test_lost_replies_count_as_errors_instead_of_hanging():
    kinds = [served.KIND_GET, served.KIND_WRITE, served.KIND_GET]
    keys = [11, 11, 11]

    async def go():
        conn = served.Conn({11: b"11"})
        conn.transport = _Transport()
        plan = served.build_plan(
            1, 0, np.array(kinds), np.array(keys, dtype=np.uint64), 1, 2
        )
        conn.transport.write = lambda data: conn.data_received(_reply(1, b"11"))
        first = await served.drive([conn], [plan], 0.01, reply_timeout=0.05)
        later = await served.drive([conn], [plan], 0.01, reply_timeout=0.05)
        return conn, first, later

    conn, first, later = asyncio.run(go())
    # The first reply arrived; the other two never did.
    assert (first.completed, first.wrong, first.errors) == (3, 0, 2)
    assert conn.lost and conn.transport.closed
    assert later.completed == 0


def test_histogram_quantiles_from_sparse_cumulative_buckets():
    name = "h_bucket"

    def scrape(get_buckets, insert_buckets):
        out = {}
        for op, buckets in (("get", get_buckets), ("insert", insert_buckets)):
            for le, count in buckets.items():
                out[(name, (("le", str(le)), ("op", op)))] = count
        return out

    a = scrape({10: 5}, {})
    b = scrape({10: 5, 20: 55, 40: 60}, {30: 40})
    # growth: get 50 in (10,20], 5 in (20,40]; insert 40 in (20,30]
    p50, p99 = served.hist_quantiles(a, b, name, ("get", "insert"), (0.5, 0.99))
    assert (p50, p99) == (20.0, 40.0)


# -- host speed ---------------------------------------------------------------


def test_host_speed_factor_is_reference_cpu_per_call_over_nominal():
    speed = common.HostSpeed()
    assert speed.factor == 1.0  # nothing sampled: no correction
    speed.cpu, speed.calls = 40 * common.REF_CALL_S * 1.5, 40
    assert speed.factor == pytest.approx(1.5)
    speed.sample(0.0)  # one call at least, however short the time
    assert speed.calls == 41


def test_on_cpu_pins_for_the_block_and_restores():
    was = os.sched_getaffinity(0)
    cpu = common.cpu_pair()[1]
    with common.on_cpu(cpu):
        assert os.sched_getaffinity(0) == {cpu}
    assert os.sched_getaffinity(0) == was


# -- the benchmark as a whole -------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload,trace", [("serve_mixed", 0), ("embedded_dynamic", 1)])
def test_quick_run_prints_the_result_schema(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_program_source_it_fails_without_a_result():
    bare = ROOT / ".perfbench_tmp" / "no-source"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("serve_read", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
