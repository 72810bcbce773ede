"""The served workloads: a closed-loop generator against ``repro.server``.

The server runs in its own process (``launcher.py``) on ephemeral
ports with a per-run data directory.  The load comes from this process:
one asyncio loop, two connections, each a closed loop that sends a
burst of 64 pre-encoded frames and sends the next burst only once every
reply of the last one has arrived (callers of ``RemoteIndex`` /
``AsyncRemoteIndex`` each wait for their replies, so a closed loop is
the faithful model).

Every connection owns a disjoint slice of the keys and writes distinct
values derived from (key, sequence number), so each GET reply is
checked exactly against that connection's shadow of acknowledged
writes.  Reply handling is one ``struct`` unpack and one comparison per
reply; all frames are encoded before the timed window.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import socket
import struct
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

import numpy as np

import common

HOST = "127.0.0.1"
N_CONNS = 2
WINDOW = 64  # requests per burst (the pipeline window)
ZIPF_THETA = 0.99
KIND_GET, KIND_WRITE = 0, 1
#: How long past its deadline a phase waits for outstanding replies
#: before it counts them as lost (a burst normally answers in ms).
REPLY_TIMEOUT_S = 30.0
#: Host speed is sampled this long before and after each set-up.
SPEED_SAMPLE_S = 0.1


@dataclass(frozen=True)
class ServedSpec:
    name: str
    read_frac: float
    n_keys: int = 50_000
    shards: int = 0
    restart: bool = False
    #: Request rate the pre-encoded trace is sized for (see ``run``).
    rate_cap: int = 120_000


SPECS = {
    "serve_read": ServedSpec("serve_read", 1.0),
    "serve_mixed": ServedSpec("serve_mixed", 0.5, restart=True, rate_cap=45_000),
    # Fewer keys: preloading through the sharded front end costs one
    # worker round trip per key (the namespace layer's existence
    # check), about 8x the single-process preload per key, and set-up
    # runs five times per run.
    "serve_sharded": ServedSpec(
        "serve_sharded", 0.95, n_keys=30_000, shards=1, rate_cap=45_000
    ),
}


# -- inputs -------------------------------------------------------------------


def make_keys(n: int, seed: int) -> np.ndarray:
    """Map-like keys shifted into the 56-bit namespace payload, deduped.

    Arrival order (the generator's drifting sweep) is kept, so the
    preload grows the index the way an ingest would.
    """
    from repro.datasets.generators import generate

    raw = generate("MM", n, seed=seed) >> np.uint64(8)
    _, first = np.unique(raw, return_index=True)
    return raw[np.sort(first)]


def zipf_ranks(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` draws from Zipf(0.99) over ranks ``0..n-1``."""
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_THETA
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(size)), n - 1)


def value_for(key: int, seq: int) -> int:
    """A value unique to (key, write sequence number); seq 0 is preload."""
    return key | (seq << 56)


@dataclass
class Plan:
    """A connection's pre-encoded requests, in bursts.

    ``bursts[b]`` is the wire bytes of burst ``b``; ``kinds``/``keys``/
    ``vals`` describe its requests (``vals`` holds a write's value
    bytes, else None; ``keys`` holds a scan's start key).
    """

    rid0: List[int] = field(default_factory=list)
    bursts: List[bytes] = field(default_factory=list)
    kinds: List[List[int]] = field(default_factory=list)
    keys: List[List[int]] = field(default_factory=list)
    vals: List[List[Optional[bytes]]] = field(default_factory=list)
    cursor: int = 0  # next burst to send


def build_plan(
    rid0: int,
    ns_id: int,
    kinds: np.ndarray,
    keys: np.ndarray,
    seq0: int,
    seq_step: int,
) -> Plan:
    """Encode a get/write trace into bursts of :data:`WINDOW` requests.

    Request ids run from ``rid0``; write ``i`` gets sequence number
    ``seq0 + i * seq_step`` (connections use disjoint progressions).
    """
    from repro.server import frame

    kinds_l = kinds.tolist()
    keys_l = keys.tolist()
    frames: List[bytes] = []
    vals: List[Optional[bytes]] = [None] * len(kinds_l)
    seq = seq0
    for i, (kind, key) in enumerate(zip(kinds_l, keys_l)):
        if kind == KIND_GET:
            frames.append(frame.encode_frame(
                rid0 + i, frame.OP_GET, frame.encode_key(ns_id, key)))
        else:
            value = value_for(key, seq)
            seq += seq_step
            vals[i] = b"%d" % value
            frames.append(frame.encode_frame(
                rid0 + i, frame.OP_INSERT,
                frame.encode_key_value(ns_id, key, value)))
    plan = Plan()
    for b in range(0, len(frames), WINDOW):
        plan.rid0.append(rid0 + b)
        plan.bursts.append(b"".join(frames[b : b + WINDOW]))
        plan.kinds.append(kinds_l[b : b + WINDOW])
        plan.keys.append(keys_l[b : b + WINDOW])
        plan.vals.append(vals[b : b + WINDOW])
    return plan


# -- the generator ------------------------------------------------------------

_U32_FROM = struct.Struct("<I").unpack_from
_RID_OP_FROM = struct.Struct("<QB").unpack_from
_PAYLOAD_AT = 17  # len u32 | crc u32 | rid u64 | op u8 | payload


class Tally:
    """What one phase of one connection saw: latencies and failures."""

    def __init__(self):
        self.lat: Dict[int, List[int]] = {
KIND_GET: [], KIND_WRITE: []}
        self.completed = 0
        self.errors = 0  # error replies, unexpected ids, lost replies
        self.wrong = 0  # GET replies that differ from the shadow
        self.exhausted = False  # a timed phase ran out of requests

    def merge(self, other: "Tally") -> "Tally":
        for kind, lat in other.lat.items():
            self.lat[kind].extend(lat)
        self.completed += other.completed
        self.errors += other.errors
        self.wrong += other.wrong
        self.exhausted |= other.exhausted
        return self


class Conn(asyncio.Protocol):
    """One closed-loop connection: send a burst, await all its replies.

    ``shadow`` maps each key this connection owns to the exact reply
    payload a GET must return: the preload value, then the value of
    the last acknowledged write.  Replies arrive in request order on
    one connection, so by the time a GET's reply is handled every
    earlier write on this connection has been acknowledged.
    """

    def __init__(self, shadow: Dict[int, bytes]):
        self.shadow = shadow
        self.transport = None
        self.buf = bytearray()
        self.done: Optional[asyncio.Future] = None
        self.single: Optional[asyncio.Future] = None
        self.plan: Optional[Plan] = None
        self.lost = False  # replies went missing; the connection is closed

    # -- asyncio.Protocol ----------------------------------------------

    def connection_made(self, transport):
        self.transport = transport
        sock = transport.get_extra_info("socket")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def connection_lost(self, exc):
        for fut in (self.done, self.single):
            if fut is not None and not fut.done():
                fut.set_exception(ConnectionError("server closed the connection"))

    def data_received(self, data):
        if self.single is not None:
            self.buf += data
            self._single_reply()
            return
        now = perf_counter_ns()
        buf = self.buf
        buf += data
        n = len(buf)
        off = 0
        pos = self.pos
        kinds, keys, vals = self.b_kinds, self.b_keys, self.b_vals
        lat = self.tally.lat
        shadow = self.shadow
        sent = self.sent_ns
        while n - off >= 4:
            end = off + 4 + _U32_FROM(buf, off)[0]
            if end > n:
                break
            rid, op = _RID_OP_FROM(buf, off + 8)
            kind = kinds[pos]
            if op != 0x80 or rid != self.b_rid0 + pos:
                self.tally.errors += 1
            elif kind == KIND_GET:
                if buf[off + _PAYLOAD_AT : end] != shadow[keys[pos]]:
                    self.tally.wrong += 1
            else:
                shadow[keys[pos]] = vals[pos]
            lat[kind].append(now - sent)
            pos += 1
            off = end
            if pos == len(kinds):
                self.tally.completed += pos
                del buf[:off]
                n -= off
                off = 0
                pos = 0
                if not self._send_next():
                    return
                kinds, keys, vals = self.b_kinds, self.b_keys, self.b_vals
                sent = self.sent_ns
        self.pos = pos
        del buf[:off]

    # -- driving ---------------------------------------------------------

    def _send_next(self) -> bool:
        plan = self.plan
        if perf_counter_ns() >= self.deadline or plan.cursor >= len(plan.bursts):
            if self.timed and plan.cursor >= len(plan.bursts):
                self.tally.exhausted = True
            self.done.set_result(self.tally)
            return False
        b = plan.cursor
        plan.cursor += 1
        self.b_rid0 = plan.rid0[b]
        self.b_kinds, self.b_keys, self.b_vals = (
            plan.kinds[b], plan.keys[b], plan.vals[b]
        )
        self.pos = 0
        self.sent_ns = perf_counter_ns()
        self.transport.write(plan.bursts[b])
        return True

    def run(self, plan: Plan, deadline_ns: Optional[int]) -> asyncio.Future:
        """Drive ``plan`` until ``deadline_ns`` (to its end if None)."""
        self.plan = plan
        self.tally = Tally()
        self.timed = deadline_ns is not None
        self.deadline = deadline_ns if deadline_ns is not None else 1 << 62
        self.done = asyncio.get_running_loop().create_future()
        if self.lost:
            self.done.set_result(self.tally)
        else:
            self._send_next()
        return self.done

    def abandon(self) -> None:
        """Count the current burst's unanswered requests as errors, end
        the phase and close the connection (a late reply would be
        mistaken for the answer to a later request)."""
        outstanding = len(self.b_kinds) - self.pos
        self.tally.completed += len(self.b_kinds)
        self.tally.errors += outstanding
        self.lost = True
        self.done.set_result(self.tally)
        self.transport.close()

    async def call(self, request: bytes) -> Tuple[int, bytes]:
        """One request outside any plan: ``(opcode, payload)`` of the reply."""
        self.single = asyncio.get_running_loop().create_future()
        self.transport.write(request)
        try:
            return await self.single
        finally:
            self.single = None

    def _single_reply(self) -> None:
        buf = self.buf
        if len(buf) < 4:
            return
        end = 4 + _U32_FROM(buf, 0)[0]
        if len(buf) < end:
            return
        _, op = _RID_OP_FROM(buf, 8)
        payload = bytes(buf[_PAYLOAD_AT:end])
        del buf[:end]
        self.single.set_result((op, payload))


async def open_conns(port: int, shadows: List[Dict[int, bytes]]) -> Tuple[List[Conn], int]:
    """Connect one :class:`Conn` per shadow; returns them and the ns id."""
    from repro.server import frame

    loop = asyncio.get_running_loop()
    conns = []
    ns_id = 0
    for shadow in shadows:
        _, conn = await loop.create_connection(lambda s=shadow: Conn(s), HOST, port)
        op, payload = await conn.call(
            frame.encode_frame(0, frame.OP_NS_OPEN, frame.encode_ns_open("default"))
        )
        if op != frame.OP_OK:
            raise RuntimeError(f"namespace open failed: {payload!r}")
        ns_id = frame.decode_ns_id(payload)
        conns.append(conn)
    return conns, ns_id


async def drive(conns: List[Conn], plans: List[Plan], seconds: float,
                reply_timeout: float = REPLY_TIMEOUT_S) -> Tally:
    """Run every connection's plan concurrently for ``seconds``; merged
    tally.  Replies still missing ``reply_timeout`` after that count as
    errors, and their connections take no further part."""
    deadline = perf_counter_ns() + int(seconds * 1e9)
    futs = [conn.run(plan, deadline) for conn, plan in zip(conns, plans)]
    await asyncio.wait(futs, timeout=seconds + reply_timeout)
    total = Tally()
    for conn, fut in zip(conns, futs):
        if not fut.done():
            conn.abandon()
        total.merge(fut.result())
    return total


# -- the server process -------------------------------------------------------


class ServerProc:
    """``launcher.py`` in its own session (process group) on ephemeral
    ports, on CPU ``cpu`` alone (its shard workers with it) if given."""

    def __init__(self, args: List[str], log: Path, trace_file: Optional[Path] = None,
                 cpu: Optional[int] = None):
        cmd = [sys.executable, str(Path(__file__).with_name("launcher.py"))]
        if trace_file is not None:
            cmd += ["--trace-file", str(trace_file)]
        cmd += ["--", "--host", HOST, "--port", "0", "--admin-port", "0", *args]
        with open(log, "ab") as err:
            self.proc = subprocess.Popen(
                cmd,
                stdout=subprocess.PIPE,
                stderr=err,
                cwd=str(common.ROOT),
                start_new_session=True,
                preexec_fn=None if cpu is None
                else lambda: os.sched_setaffinity(0, {cpu}),
            )
        self.stopped = False
        try:
            line = self._read_line(timeout=120.0)
            # "repro.server listening on HOST:PORT (..., admin=APORT)"
            self.port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
            self.admin = int(line.rsplit("admin=", 1)[1].rstrip(")\n"))
        except Exception:
            self.stop(graceful=False)
            raise RuntimeError(
                f"server did not start; see {log}: {log.read_text()[-2000:]}"
            ) from None

    def _read_line(self, timeout: float) -> str:
        fd = self.proc.stdout
        ready, _, _ = select.select([fd], [], [], timeout)
        if not ready:
            raise TimeoutError("no listening line")
        line = fd.readline().decode()
        if "listening on" not in line:
            raise RuntimeError(f"unexpected server output {line!r}")
        return line

    @property
    def pid(self) -> int:
        return self.proc.pid

    def pids(self) -> List[int]:
        return common.process_tree(self.proc.pid)

    def scrape(self) -> Dict[tuple, float]:
        from repro.obs import parse_prometheus

        url = f"http://{HOST}:{self.admin}/metrics"
        with urllib.request.urlopen(url, timeout=30) as resp:
            return parse_prometheus(resp.read().decode())

    def stop(self, graceful: bool) -> None:
        """SIGTERM (graceful: checkpoint, release shared memory) or SIGKILL."""
        if self.stopped:
            return
        self.stopped = True
        try:
            common.reap_group(self.proc, graceful)
        finally:
            self.proc.stdout.close()


def server_args(spec: ServedSpec, data_dir: Path) -> List[str]:
    args = ["--dir", str(data_dir), "--fsync", "batch"]
    if spec.shards:
        args += ["--shards", str(spec.shards)]
    return args


def server_defaults() -> Dict[str, object]:
    """The storage engine and batching the server runs with by default."""
    try:
        from repro.server.__main__ import _build_parser

        ns = _build_parser().parse_args([])
        return {"storage": ns.storage, "coalesce": not ns.no_coalesce,
                "max_batch": ns.max_batch}
    except (ImportError, AttributeError, SystemExit):
        return {"storage": "unknown"}


def preload(port: int, keys: List[int]) -> None:
    """Insert every key with its seq-0 value over one client connection."""
    from repro.server.client import RemoteIndex

    with RemoteIndex(HOST, port, "default") as idx:
        idx.bulk_load(keys, keys)


# -- metrics helpers ----------------------------------------------------------


def series(scrape: Dict[tuple, float], name: str, **labels) -> float:
    want = tuple(sorted(labels.items()))
    return scrape.get((name, want), 0.0)


def delta(a, b, name: str, **labels) -> float:
    return series(b, name, **labels) - series(a, name, **labels)


def _buckets(scrape, name: str, op: str) -> List[Tuple[float, float]]:
    """Sorted ``(le, cumulative count)`` of one op's finite buckets."""
    pts = []
    for (sname, labels), value in scrape.items():
        lab = dict(labels)
        if sname == name and lab.get("op") == op and lab.get("le") not in (None, "+Inf"):
            pts.append((float(lab["le"]), value))
    return sorted(pts)


def _cum_at(pts: List[Tuple[float, float]], le: float) -> float:
    """Cumulative count at ``le``; buckets are sparse, so carry forward."""
    out = 0.0
    for bound, count in pts:
        if bound > le:
            break
        out = count
    return out


def hist_quantiles(a, b, name: str, ops, qs) -> List[float]:
    """Quantiles (bucket upper bounds) of a histogram's growth from a to b,
    summed over ``ops``."""
    before = {op: _buckets(a, name, op) for op in ops}
    after = {op: _buckets(b, name, op) for op in ops}
    bounds = sorted({le for pts in after.values() for le, _ in pts})
    cum = [
        sum(_cum_at(after[op], le) - _cum_at(before[op], le) for op in ops)
        for le in bounds
    ]
    if not cum or cum[-1] <= 0:
        return [0.0 for _ in qs]
    return [
        next(le for le, c in zip(bounds, cum) if c >= q * cum[-1]) for q in qs
    ]


# -- one run ------------------------------------------------------------------


def _window(loop, srv: ServerProc, conns, plans, seconds: float,
            srv_cpu: int) -> dict:
    """One timed window in one-second parts, each with its own CPU and
    wall time, so a run reports medians over parts.

    Each part is cut into slices; after each, with every reply in and
    the server idle, this process samples the host speed on the
    server's CPU.  Wall and client CPU times leave those samples out.
    """
    pids = srv.pids()
    before = srv.scrape()
    n_parts = max(1, round(seconds))
    slice_s = seconds / n_parts / common.SLICES
    parts = []
    with common.quiesced_gc():
        for _ in range(n_parts):
            cpu0, main0 = common.cpu_seconds(pids), common.cpu_seconds([srv.pid])
            part = {"tally": Tally(), "wall": 0.0, "client_cpu": 0.0}
            speed = common.HostSpeed()
            for _ in range(common.SLICES):
                client0, t0 = time.process_time(), time.perf_counter()
                part["tally"].merge(loop.run_until_complete(
                    drive(conns, plans, slice_s * (1 - common.REF_SHARE))))
                part["wall"] += time.perf_counter() - t0
                part["client_cpu"] += time.process_time() - client0
                with common.on_cpu(srv_cpu):
                    speed.sample(slice_s * common.REF_SHARE)
            part["server_cpu"] = common.cpu_seconds(pids) - cpu0
            part["main_cpu"] = common.cpu_seconds([srv.pid]) - main0
            part["speed"] = speed.factor
            parts.append(part)
    total = Tally()
    for part in parts:
        total.merge(part["tally"])
    return {
        "parts": parts, "tally": total,
        "wall": sum(p["wall"] for p in parts),
        "client_cpu": sum(p["client_cpu"] for p in parts),
        "server_cpu": sum(p["server_cpu"] for p in parts),
        "main_cpu": sum(p["main_cpu"] for p in parts),
        "before": before, "after": srv.scrape(),
    }


def _written(plans: List[Plan]) -> Dict[int, set]:
    """Every value sent to each key by the bursts actually sent."""
    out: Dict[int, set] = {}
    for plan in plans:
        for b in range(plan.cursor):
            for kind, key, val in zip(plan.kinds[b], plan.keys[b], plan.vals[b]):
                if kind == KIND_WRITE:
                    out.setdefault(key, set()).add(int(val))
    return out


def _restart(spec, srv, data: Path, log: Path, keys: List[int], written,
             srv_cpu: int) -> dict:
    """SIGKILL the server, restart it on the same directory, verify.

    Every preloaded key must be present with a value that was actually
    written to it: its preload value or one the generator sent.
    """
    from repro.server.client import RemoteIndex

    def valid(key, value) -> bool:
        return value == key or value in written.get(key, ())

    t0 = time.perf_counter()
    srv.stop(graceful=False)
    srv2 = ServerProc(server_args(spec, data), log, cpu=srv_cpu)
    try:
        with RemoteIndex(HOST, srv2.port, "default") as idx:
            first_ok = valid(keys[0], idx.get(keys[0]))
            restart_s = time.perf_counter() - t0
            bad = 0 if first_ok else 1
            for i in range(0, len(keys), 8192):
                chunk = keys[i : i + 8192]
                bad += sum(
                    not valid(k, v) for k, v in zip(chunk, idx.get_many(chunk))
                )
        replay_s = series(srv2.scrape(), "dytis_wal_replay_ns_total") / 1e9
    finally:
        srv2.stop(graceful=False)
    return {"restart_s": restart_s, "replay_s": replay_s, "checked": len(keys) + 1,
            "bad": bad}


def _stop_all(loop, conns, servers, graceful: bool) -> None:
    for conn in conns:
        if conn.transport is not None:
            conn.transport.close()
    if conns:
        loop.run_until_complete(asyncio.sleep(0))
    for srv in servers:
        srv.stop(graceful)


def run(name: str, seed: int, seconds: float, trace: bool,
        n_keys: Optional[int] = None, setups: int = 5) -> dict:
    """Run one served workload; returns a dict for ``run.py`` to report.

    The pre-encoded trace holds ``seconds * rate_cap`` requests; a run
    that exhausts it ends early and says so (``trace_exhausted``).
    The server (with its shard workers) runs on one CPU and this
    process on another, so the host speed sampled on the server's CPU
    is that of the CPU its work ran on.
    """
    srv_cpu, client_cpu = common.cpu_pair()
    with common.on_cpu(client_cpu):
        return _run(name, seed, seconds, trace, n_keys, setups, srv_cpu)


def _run(name, seed, seconds, trace, n_keys, setups, srv_cpu) -> dict:
    spec = SPECS[name]
    keys = make_keys(n_keys or spec.n_keys, common.DATA_SEED)
    keys_l = keys.tolist()
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(keys))
    slices = [keys[perm[c::N_CONNS]] for c in range(N_CONNS)]
    loop = asyncio.new_event_loop()
    servers: List[ServerProc] = []
    conns: List[Conn] = []
    rep: dict = {"keys": len(keys), "conns": N_CONNS, "window": WINDOW,
                 "fsync": "batch", "shards": spec.shards, **server_defaults()}
    with common.run_dir(name) as tmp:
        log = tmp / "server.log"
        spans_file = tmp / "spans.json"
        try:
            setup_s, setup_speed, setup_wall = [], [], []
            n_setups = 1 if trace else setups
            for i in range(n_setups):
                data = tmp / f"data{i}"
                srv_speed, own_speed = common.HostSpeed(), common.HostSpeed()
                with common.on_cpu(srv_cpu):
                    srv_speed.sample(SPEED_SAMPLE_S)
                own_speed.sample(SPEED_SAMPLE_S)
                t0, c0 = time.perf_counter(), time.process_time()
                srv = ServerProc(server_args(spec, data), log,
                                 spans_file if trace else None, cpu=srv_cpu)
                servers.append(srv)
                preload(srv.port, keys_l)
                setup_wall.append(time.perf_counter() - t0)
                # CPU of this process plus the whole server tree since
                # it started: a preload's wall time is mostly round
                # trips between processes, whose latency follows the
                # host's load and drifted 2x from one day to the next.  Each
                # part is taken to the reference speed of its own CPU,
                # sampled just before and just after.
                own = time.process_time() - c0
                server = common.cpu_seconds(srv.pids())
                with common.on_cpu(srv_cpu):
                    srv_speed.sample(SPEED_SAMPLE_S)
                own_speed.sample(SPEED_SAMPLE_S)
                setup_s.append(own / own_speed.factor + server / srv_speed.factor)
                setup_speed.append(srv_speed.factor)
                if i < n_setups - 1:
                    srv.stop(graceful=bool(spec.shards))
            rep["setup_samples_s"] = setup_s
            rep["setup_speed"] = setup_speed
            rep["setup_wall_s"] = setup_wall
            shadows = [{k: b"%d" % k for k in s.tolist()} for s in slices]
            conns, ns_id = loop.run_until_complete(open_conns(srv.port, shadows))

            warm = min(1.0, 0.1 * seconds)
            per_conn = int((seconds + warm) * spec.rate_cap / N_CONNS) + WINDOW
            plans = [
                build_plan(
                    1, ns_id,
                    (rng.random(per_conn) >= spec.read_frac).astype(np.int64),
                    sl[zipf_ranks(len(sl), per_conn, rng)],
                    seq0=c + 1, seq_step=N_CONNS,
                )
                for c, sl in enumerate(slices)
            ]
            rep["trace_capacity_ops"] = per_conn * N_CONNS

            tallies = [loop.run_until_complete(drive(conns, plans, warm))]
            if trace:
                base = _window(loop, srv, conns, plans, seconds / 2, srv_cpu)
                os.kill(srv.pid, signal.SIGUSR1)
                time.sleep(0.05)
                from repro.server import frame

                loop.run_until_complete(
                    conns[0].call(frame.encode_frame(0, frame.OP_PING)))
                win = _window(loop, srv, conns, plans, seconds / 2, srv_cpu)
                os.kill(srv.pid, signal.SIGUSR2)
                rep["spans"] = _await_file(spans_file)
                rep["untraced"] = base
                tallies.append(base["tally"])
            else:
                win = _window(loop, srv, conns, plans, seconds, srv_cpu)
            tallies.append(win["tally"])
            rep["win"] = win
            rep["peak_rss_mb"] = common.peak_rss_mb(srv.pids())
            rep["tallies"] = tallies
            if spec.restart:
                for conn in conns:
                    conn.transport.close()
                rep["restart"] = _restart(
                    spec, srv, tmp / f"data{len(setup_s) - 1}", log, keys_l,
                    _written(plans), srv_cpu,
                )
        finally:
            _stop_all(loop, conns, servers, graceful=bool(spec.shards))
            loop.close()
    return rep


def _await_file(path: Path, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            raise TimeoutError(f"no span summary at {path}")
        time.sleep(0.05)
    return json.loads(path.read_text())
