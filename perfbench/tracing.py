"""Per-layer tracing: wrappers around each layer's public entry points.

The wrappers live in the benchmark, never in ``src/``.  ``launcher.py``
installs the server-side ones (:func:`install_server`) in the serving
process before it serves, and the benchmark installs the client-side one
(:func:`install_client`) in its own process for the traced window.
Spans are kept in memory (:class:`SpanLog`) and written out when the
serving process shuts down.

Spans of one request share the server-assigned ``x-repro-trace`` id: the
client reads it from the response's ``meta.request_id``, the gateway
receives it as the ``trace=`` argument of ``submit``/``submit_update``,
and code running inside the gateway for a request finds it through
:func:`repro.obs.trace.current_trace`.  All times are
``time.perf_counter()`` readings, which share one clock across the
processes of a machine.

:func:`per_layer` turns the spans into the per-layer metrics.  A layer's
self time is its span's duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import threading
import time
from pathlib import Path

from common import median, percentile

# Spans nested inside a gateway op, on the op's dataset.  A dataset's work
# is serialized, so such a span blocks the op even when it runs another
# request's solve: it is the lower layer's time, not the gateway's.
_GATEWAY_CHILDREN = ("index.query", "index.plan", "live.write", "wal.append",
                     "registry.get")

#: (name, unit, better, the end-to-end metric and workload it should move).
#: BENCHMARK.json's per_layer list and README.md's table follow this one.
PER_LAYER = [
    ("client.request_ms.p50", "ms", "lower", "op_p50_ms, all"),
    ("client.send_lag_ms.p99", "ms", "lower",
     "validity check of the routed-burst generator, not a target"),
    ("cluster.router.hop_ms.p50", "ms", "lower", "op_p50_ms @ routed-burst"),
    ("cluster.router.failovers", "count", "lower", "failed @ routed-burst"),
    ("cluster.router.routing_errors", "count", "lower", "failed @ routed-burst"),
    ("server.self_ms.p50", "ms", "lower", "op_p50_ms, throughput_rps @ warm-hit"),
    ("server.shed", "count", "lower", "failed @ routed-burst"),
    ("server.http_errors", "count", "lower", "failed, all"),
    ("service.gateway.op_ms.p50", "ms", "lower",
     "op_p50_ms @ warm-hit, live-write"),
    ("service.gateway.op_ms.p99", "ms", "lower",
     "throughput_rps @ warm-hit, live-write"),
    ("service.gateway.self_ms.p50", "ms", "lower",
     "op_p50_ms, throughput_rps @ warm-hit, live-write; about 0 share @ "
     "cold-solve"),
    ("service.gateway.batch_size_mean", "count", "higher",
     "op_p50_ms @ routed-burst"),
    ("service.gateway.coalesce_ratio", "ratio", "higher",
     "op_p50_ms @ routed-burst"),
    ("service.registry.get_s.total", "s", "lower", "setup_s, all"),
    ("service.registry.evictions", "count", "lower",
     "peak_rss_mb, op_p50_ms; 0 while no workload sets a byte budget"),
    ("service.registry.restores", "count", "lower",
     "op_p50_ms; 0 while no workload sets a byte budget"),
    ("service.warmup.prime_s", "s", "lower", "setup_s, all"),
    ("cluster.wal.append_ms.p50", "ms", "lower", "op_p50_ms @ live-write"),
    ("cluster.wal.append_ms.p99", "ms", "lower", "throughput_rps @ live-write"),
    ("cluster.wal.fsyncs_per_write", "ratio", "lower",
     "op_p50_ms, throughput_rps @ live-write"),
    ("cluster.wal.bytes_per_write", "bytes", "lower", "op_p50_ms @ live-write"),
    ("planner.plan_us.p50", "us", "lower", "op_p50_ms @ cold-solve (small share)"),
    ("serving.index.query_ms.p50", "ms", "lower", "op_p50_ms, all"),
    ("serving.index.query_ms.p99", "ms", "lower",
     "throughput_rps @ cold-solve, live-write"),
    ("serving.index.memo_hit_ratio", "ratio", "higher",
     "design check: 1.0 @ warm-hit, 0.0 @ cold-solve"),
    ("serving.live.write_ms.p50", "ms", "lower", "op_p50_ms @ live-write"),
    ("serving.live.read_after_write_ms.p50", "ms", "lower",
     "throughput_rps @ live-write"),
    ("serving.live.read_after_write_ms.p99", "ms", "lower",
     "throughput_rps @ live-write"),
    ("core.intcov.geometry_ms.p50", "ms", "lower", "throughput_rps @ live-write"),
    ("core.intcov.search_ms.p50", "ms", "lower", "throughput_rps @ live-write"),
    ("core.intcov.finalize_ms.p50", "ms", "lower", "throughput_rps @ live-write"),
    ("core.bigreedy.engine_ms.p50", "ms", "lower",
     "op_p50_ms, throughput_rps @ cold-solve"),
    ("core.bigreedy.search_ms.p50", "ms", "lower",
     "op_p50_ms, throughput_rps @ cold-solve"),
    ("core.bigreedy.finalize_ms.p50", "ms", "lower",
     "op_p50_ms, throughput_rps @ cold-solve"),
    ("geometry.net_builds", "count", "lower", "setup_s @ cold-solve"),
    ("serving.mhr_estimate_gap_mean", "ratio", "lower", "answer_mhr_mean, all"),
    ("unattributed_ms.p50", "ms", "lower", "none: client time no span covers"),
    ("trace_overhead_frac", "ratio", "lower",
     "none: traced over untraced op_p50_ms, minus 1"),
    ("design.overhead_share", "ratio", "lower",
     "design check: server + gateway self time over client time; "
     "> 0.5 @ warm-hit, < 0.1 @ cold-solve"),
    ("design.solver_share", "ratio", "higher",
     "design check: solver time over client time; < 0.05 @ warm-hit, "
     "> 0.5 @ cold-solve"),
]


class SpanLog:
    """In-memory spans ``(name, trace_id, start, end, attrs)``, dumped as JSON."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def add(self, name, trace_id, start, end, **attrs) -> None:
        # list.append is atomic under the interpreter lock.
        self.spans.append((name, trace_id, start, end, attrs))

    def dump(self, path) -> None:
        spans = list(self.spans)
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": spans}, fh)
        os.replace(tmp, path)


def _wrap(cls, attr, make) -> None:
    setattr(cls, attr, functools.wraps(getattr(cls, attr))(make(getattr(cls, attr))))


def install_server(log: SpanLog) -> None:
    """Wrap the serving process's layers; spans go to ``log``."""
    from repro.cluster.wal import WriteAheadLog
    from repro.obs.trace import current_trace
    from repro.server.app import FairHMSServer
    from repro.service.gateway import Gateway
    from repro.service.registry import DatasetRegistry
    from repro.serving.artifacts import SolverArtifacts
    from repro.serving.index import FairHMSIndex
    from repro.serving.live import LiveFairHMSIndex

    clock = time.perf_counter
    written = set()  # ids of live indexes written since their last read
    in_wal = threading.local()

    def tid():
        trace = current_trace()
        return None if trace is None else trace.trace_id

    def dataset_of(index):
        # The request's registry name (the server tags each trace with
        # it); live indexes carry no dataset name of their own.
        trace = current_trace()
        if trace is not None and trace.root.tags.get("dataset"):
            return trace.root.tags["dataset"]
        return index._dataset_label(None)

    def dispatch(orig):
        async def wrapper(self, request):
            t0 = clock()
            out = await orig(self, request)
            payload = out[1]
            meta = payload.get("meta") if isinstance(payload, dict) else None
            rid = meta.get("request_id") if isinstance(meta, dict) else None
            log.add("server.dispatch", rid, t0, clock())
            return out
        return wrapper

    def gateway_op(kind):
        def make(orig):
            def wrapper(self, dataset, *args, trace=None, **kwargs):
                t0 = clock()
                future = orig(self, dataset, *args, trace=trace, **kwargs)
                rid = None if trace is None else trace.trace_id
                future.add_done_callback(
                    lambda _f: log.add("gateway.op", rid, t0, clock(),
                                       kind=kind, ds=dataset)
                )
                return future
            return wrapper
        return make

    def index_call(multi):
        def make(orig):
            def wrapper(self, *args, **kwargs):
                raw = id(self) in written
                written.discard(id(self))
                hits, misses = self._result_hits, self._result_misses
                before = {id(s) for s in self._results.values()}
                t0 = clock()
                out = orig(self, *args, **kwargs)
                t1 = clock()
                solved = [s for s in (out if multi else [out])
                          if id(s) not in before]
                phases = {}
                for s in {id(s): s for s in solved}.values():
                    for name, secs in (s.stats.get("phases") or {}).items():
                        phases[name] = phases.get(name, 0.0) + secs
                log.add("index.query", tid(), t0, t1, ds=dataset_of(self),
                        hits=self._result_hits - hits,
                        misses=self._result_misses - misses,
                        raw=raw, phases=phases,
                        algorithm=solved[0].algorithm if solved else None)
                return out
            return wrapper
        return make

    def timed(name, ds_of=None):
        def make(orig):
            def wrapper(self, *args, **kwargs):
                t0 = clock()
                out = orig(self, *args, **kwargs)
                ds = ds_of(self, args, kwargs) if ds_of else None
                log.add(name, tid(), t0, clock(), ds=ds)
                return out
            return wrapper
        return make

    def live_write(orig):
        def wrapper(self, *args, **kwargs):
            t0 = clock()
            out = orig(self, *args, **kwargs)
            written.add(id(self))
            log.add("live.write", tid(), t0, clock(), ds=dataset_of(self))
            return out
        return wrapper

    def wal_append(orig):
        def wrapper(self, name, record):
            path = self.path(name)
            size = path.stat().st_size if path.exists() else 0
            in_wal.fsyncs = 0
            t0 = clock()
            try:
                return orig(self, name, record)
            finally:
                t1 = clock()
                log.add("wal.append", tid(), t0, t1, ds=name,
                        bytes=path.stat().st_size - size,
                        fsyncs=in_wal.__dict__.pop("fsyncs"))
        return wrapper

    real_fsync = os.fsync

    def fsync(fd):
        if hasattr(in_wal, "fsyncs"):
            in_wal.fsyncs += 1
        return real_fsync(fd)

    def artifact_build(counter):
        def make(orig):
            def wrapper(self, *args, **kwargs):
                before = self.counters[counter]
                out = orig(self, *args, **kwargs)
                if self.counters[counter] > before:
                    now = clock()
                    log.add("artifacts.build", tid(), now, now, what=counter)
                return out
            return wrapper
        return make

    os.fsync = fsync
    _wrap(FairHMSServer, "_dispatch", dispatch)
    _wrap(Gateway, "submit", gateway_op("query"))
    _wrap(Gateway, "submit_update", gateway_op("write"))
    _wrap(FairHMSIndex, "query", index_call(multi=False))
    _wrap(FairHMSIndex, "query_multi", index_call(multi=True))
    _wrap(FairHMSIndex, "plan_query",
          timed("index.plan", lambda s, a, k: s._dataset_label(k.get("dataset"))))
    _wrap(LiveFairHMSIndex, "insert", live_write)
    _wrap(LiveFairHMSIndex, "delete", live_write)
    _wrap(WriteAheadLog, "append", wal_append)
    _wrap(DatasetRegistry, "get", timed("registry.get", lambda s, a, k: a[0]))
    _wrap(SolverArtifacts, "net", artifact_build("net_misses"))
    _wrap(SolverArtifacts, "engine", artifact_build("engine_misses"))


def traced_worker_entry(prefix: str, config, ready_path: str) -> None:
    """A cluster worker (the spawn target) that records and dumps its spans."""
    from repro.cluster.worker import worker_entry

    log = SpanLog()
    install_server(log)
    try:
        worker_entry(config, ready_path)
    finally:
        log.dump(f"{prefix}-{os.getpid()}.json")


def install_client(log: SpanLog):
    """Wrap ``FairHMSClient.request`` in this process; returns an undo callable."""
    from repro.client import FairHMSClient

    orig = FairHMSClient.request

    @functools.wraps(orig)
    def request(self, method, path, payload=None, **kwargs):
        t0 = time.perf_counter()
        resp = orig(self, method, path, payload, **kwargs)
        t1 = time.perf_counter()
        rid = (resp.meta or {}).get("request_id")
        log.add("client.request", rid, t0, t1, path=path)
        return resp

    FairHMSClient.request = request

    def undo():
        FairHMSClient.request = orig

    return undo


# --------------------------------------------------------------------- #
# counters read over HTTP around the traced window
# --------------------------------------------------------------------- #


def _metrics(port: int) -> dict:
    from repro.client import FairHMSClient

    with FairHMSClient("127.0.0.1", port, timeout=60) as client:
        return client.metrics()


def worker_ports(wl, port: int) -> list[int]:
    """The serving processes behind ``port`` (itself, or the router's workers)."""
    if not wl.cluster:
        return [port]
    return [w["port"] for w in _metrics(port)["workers"].values()]


def counters(wl, port: int) -> dict:
    """Server, gateway and registry counters summed over the workers."""
    out = {"shed": 0, "http_errors": 0, "requests": 0, "coalesced": 0,
           "batches": 0, "batched_requests": 0, "evictions": 0,
           "spill_loads": 0, "failovers": 0, "routing_errors": 0}
    for wport in worker_ports(wl, port):
        m = _metrics(wport)
        totals = m["service"]["totals"]
        out["shed"] += m["server"]["shed"]
        out["http_errors"] += m["server"]["http_errors"]
        for name in ("requests", "coalesced", "evictions", "spill_loads"):
            out[name] += totals.get(name, 0)
        out["batches"] += m["service"]["batches"]
        out["batched_requests"] += m["service"]["batched_requests"]
    if wl.cluster:
        router = _metrics(port)["counters"]
        out["failovers"] = router.get("failovers", 0)
        errors = router.get("routing_errors", {})
        out["routing_errors"] = sum(errors.values()) if isinstance(errors, dict) else errors
    return out


def router_hop_ms(wl, port: int, ops, records, pairs: int = 200) -> float:
    """Routed minus direct p50 over the same served queries, sent alternately."""
    if not wl.cluster:
        return 0.0
    from repro.client import FairHMSClient

    (wport,) = worker_ports(wl, port)
    served = [ops[r.index] for r in records if r.ok and r.kind == "query"][:pairs]
    routed, direct = [], []
    with FairHMSClient("127.0.0.1", port, retries=0) as via, \
            FairHMSClient("127.0.0.1", wport, retries=0) as straight:
        for op in served:
            for client, sink in ((via, routed), (straight, direct)):
                t0 = time.perf_counter()
                client.request("POST", op.path, op.payload, retry=False)
                sink.append((time.perf_counter() - t0) * 1e3)
    return median(routed) - median(direct)


# --------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------- #


class Coverage:
    """Union of intervals; :meth:`covered` measures its overlap with [s, e]."""

    def __init__(self, intervals) -> None:
        merged: list[list[float]] = []
        for s, e in sorted(intervals):
            if merged and s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        self.starts = [s for s, _ in merged]
        self.ends = [e for _, e in merged]
        self.prefix = [0.0]
        for s, e in merged:
            self.prefix.append(self.prefix[-1] + (e - s))

    def covered(self, s: float, e: float) -> float:
        if e <= s or not self.starts:
            return 0.0
        lo = bisect.bisect_right(self.ends, s)
        hi = bisect.bisect_left(self.starts, e)
        if lo >= hi:
            return 0.0
        total = self.prefix[hi] - self.prefix[lo]
        total -= max(0.0, s - self.starts[lo])
        total -= max(0.0, self.ends[hi - 1] - e)
        return total


def load_spans(spans_dir: Path) -> list[tuple]:
    spans = []
    for path in sorted(Path(spans_dir).glob("*.json")):
        spans.extend(tuple(s) for s in json.loads(path.read_text())["spans"])
    return spans


def _p(values, q, scale=1e3):
    return percentile(values, q) * scale if values else 0.0


def per_layer(wl, window, server_spans, client_spans, extra) -> dict:
    """The per-layer metrics of one traced window.

    ``window`` holds ``t0``/``t1`` (the measured window), the counter
    deltas, the router hop, the untraced and traced query p50s and the
    set-up's prime time; ``extra`` the gate's MHR gap.
    """
    t0, t1 = window["t0"], window["t1"]
    inside = [s for s in server_spans if t0 <= s[2] <= t1]
    by_name: dict[str, list[tuple]] = {}
    for s in inside:
        by_name.setdefault(s[0], []).append(s)
    clients = [s for s in client_spans if t0 <= s[2] <= t1 and s[1]]
    dur = lambda s: s[3] - s[2]  # noqa: E731

    ops = {s[1]: s for s in by_name.get("gateway.op", []) if s[1]}
    dispatch = {s[1]: s for s in by_name.get("server.dispatch", []) if s[1]}
    child_cover = {}
    solve_cover = {}
    for name in _GATEWAY_CHILDREN:
        for s in by_name.get(name, []):
            child_cover.setdefault(s[4].get("ds"), []).append((s[2], s[3]))
    for s in by_name.get("index.query", []):
        if s[4]["misses"]:
            solve_cover.setdefault(s[4]["ds"], []).append((s[2], s[3]))
    child_cover = {ds: Coverage(v) for ds, v in child_cover.items()}
    solve_cover = {ds: Coverage(v) for ds, v in solve_cover.items()}
    empty = Coverage([])

    gateway_self = {}
    for rid, s in ops.items():
        cover = child_cover.get(s[4]["ds"], empty)
        gateway_self[rid] = dur(s) - cover.covered(s[2], s[3])

    server_self, unattributed = [], []
    client_total = overhead_total = solver_total = 0.0
    for c in clients:
        rid = c[1]
        op = ops.get(rid)
        if op is None:
            continue
        server_self.append(dur(c) - dur(op))
        d = dispatch.get(rid)
        if d is not None:
            unattributed.append(dur(c) - dur(d))
        client_total += dur(c)
        overhead_total += dur(c) - dur(op) + gateway_self[rid]
        solver_total += solve_cover.get(op[4]["ds"], empty).covered(op[2], op[3])

    index = by_name.get("index.query", [])
    hits = sum(s[4]["hits"] for s in index)
    misses = sum(s[4]["misses"] for s in index)
    phase = {}
    for s in index:
        algo = s[4].get("algorithm") or ""
        family = "intcov" if algo == "IntCov" else "bigreedy" if algo else None
        if family and s[4]["misses"]:
            for name, secs in s[4]["phases"].items():
                phase.setdefault((family, name), []).append(secs)
    wal = by_name.get("wal.append", [])
    writes = [dur(s) for s in by_name.get("live.write", [])]
    raw = [dur(s) for s in index if s[4]["raw"]]
    counts = window["counters"]
    requests = counts["requests"] or 1

    m = {
        "client.request_ms.p50": _p([dur(c) for c in clients], 50),
        "client.send_lag_ms.p99": window["send_lag_ms"] or 0.0,
        "cluster.router.hop_ms.p50": window["hop_ms"],
        "cluster.router.failovers": counts["failovers"],
        "cluster.router.routing_errors": counts["routing_errors"],
        "server.self_ms.p50": _p(server_self, 50),
        "server.shed": counts["shed"],
        "server.http_errors": counts["http_errors"],
        "service.gateway.op_ms.p50": _p([dur(s) for s in ops.values()], 50),
        "service.gateway.op_ms.p99": _p([dur(s) for s in ops.values()], 99),
        "service.gateway.self_ms.p50": _p(list(gateway_self.values()), 50),
        "service.gateway.batch_size_mean":
            counts["batched_requests"] / max(1, counts["batches"]),
        "service.gateway.coalesce_ratio": counts["coalesced"] / requests,
        "service.registry.get_s.total":
            sum(dur(s) for s in by_name.get("registry.get", [])),
        "service.registry.evictions": counts["evictions"],
        "service.registry.restores": counts["spill_loads"],
        "service.warmup.prime_s": window["prime_s"],
        "cluster.wal.append_ms.p50": _p([dur(s) for s in wal], 50),
        "cluster.wal.append_ms.p99": _p([dur(s) for s in wal], 99),
        "cluster.wal.fsyncs_per_write":
            sum(s[4]["fsyncs"] for s in wal) / len(wal) if wal else 0.0,
        "cluster.wal.bytes_per_write":
            sum(s[4]["bytes"] for s in wal) / len(wal) if wal else 0.0,
        "planner.plan_us.p50":
            _p([dur(s) for s in by_name.get("index.plan", [])], 50, 1e6),
        "serving.index.query_ms.p50": _p([dur(s) for s in index], 50),
        "serving.index.query_ms.p99": _p([dur(s) for s in index], 99),
        "serving.index.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serving.live.write_ms.p50": _p(writes, 50),
        "serving.live.read_after_write_ms.p50": _p(raw, 50),
        "serving.live.read_after_write_ms.p99": _p(raw, 99),
        "geometry.net_builds": len(by_name.get("artifacts.build", [])),
        "serving.mhr_estimate_gap_mean": extra["mhr_estimate_gap_mean"] or 0.0,
        "unattributed_ms.p50": _p(unattributed, 50),
        "trace_overhead_frac":
            window["traced_p50_ms"] / window["plain_p50_ms"] - 1.0,
        "design.overhead_share": overhead_total / client_total if client_total else 0.0,
        "design.solver_share": solver_total / client_total if client_total else 0.0,
    }
    for family, names in (("intcov", ("geometry", "search", "finalize")),
                          ("bigreedy", ("engine", "search", "finalize"))):
        for name in names:
            m[f"core.{family}.{name}_ms.p50"] = _p(phase.get((family, name), []), 50)
    return {name: {"value": float(m[name]), "unit": unit}
            for name, unit, _better, _moves in PER_LAYER}
