"""The four workloads: server config, seeded op stream, priming, loop shape.

Datasets come from ``repro.data.synthetic`` (through the config's
synthetic dataset specs, so the server builds them itself) and request
streams from ``repro.scenarios``; ``cold-solve``'s distinct explicit
constraints are drawn here, because no scenario generator emits explicit
constraints.  Dataset seeds are fixed: ``--seed`` varies the request
stream only, so runs with different seeds measure the same datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from common import BENCH_DIR

SCENARIOS = BENCH_DIR / "scenarios"


@dataclass(frozen=True)
class Op:
    """One request: ``kind`` is ``query``, ``insert`` or ``delete``.

    ``payload`` is the HTTP body; ``at`` is the due time in seconds from
    the start of the window (open loop only).
    """

    kind: str
    payload: dict
    at: float = 0.0

    @property
    def path(self) -> str:
        return "/v1/query" if self.kind == "query" else "/v1/write"

    @property
    def dataset(self) -> str:
        return self.payload["dataset"]


def _trace_query(req) -> Op:
    return Op(
        "query",
        {
            "dataset": req.dataset,
            "k": int(req.k),
            "eps": float(req.eps),
            "alpha": float(req.alpha),
            "algorithm": str(req.algorithm),
        },
        at=float(req.at),
    )


def _synthetic(name: str, n: int, d: int, seed: int, **extra) -> dict:
    return {"name": name, "kind": "synthetic", "n": int(n), "d": d, "groups": 3,
            "seed": seed, **extra}


class Workload:
    name = ""
    connections = 2
    open_loop = False
    cluster = False
    live = False

    def config(self, workdir: Path, port: int) -> dict:
        raise NotImplementedError

    def stream(self, seed: int, seconds: float) -> list[Op]:
        raise NotImplementedError

    def prime(self) -> list[Op]:
        """Ops sent during set-up, before the measured window."""
        raise NotImplementedError

    def eval_indices(self, ops: list[Op], seed: int) -> list[int]:
        """Positions in ``prime() + ops`` of the answers whose MHR is certified.

        By default the answers to the priming queries, which the window's
        memo hits repeat: the same answers whatever the seed, so
        ``answer_mhr_mean`` repeats exactly.
        """
        return list(range(len(self.prime())))

    def provenance(self, config: dict) -> dict:
        return {}


class WarmHit(Workload):
    name = "warm-hit"
    spec_file = "warm-hit.toml"
    #: One connection: with two, the query p50 spread three times wider
    #: between runs (10% against 3% of the median over five seeds).
    connections = 1

    def _spec(self):
        from repro.scenarios import load_scenario

        return load_scenario(SCENARIOS / self.spec_file)

    def config(self, workdir, port):
        tenants = self._spec().all_tenants()
        return {
            "server": {"port": port},
            "datasets": [
                _synthetic(t.name, t.n, 2, 40 + i) for i, t in enumerate(tenants)
            ],
        }

    def stream(self, seed, seconds):
        from repro.scenarios import build_trace

        spec = self._spec()
        # Sized well past what the window completes.
        count = int(1500 * seconds) + 100
        spec = replace(spec, workload=replace(spec.workload, requests=count))
        return [_trace_query(r) for r in build_trace(spec, seed=seed)]

    def prime(self):
        spec = self._spec()
        return [
            Op("query", {"dataset": t.name, "k": k, "eps": spec.workload.eps,
                         "alpha": spec.workload.alpha,
                         "algorithm": spec.workload.algorithm})
            for t in spec.all_tenants()
            for k in spec.workload.ks
        ]


class ColdSolve(Workload):
    name = "cold-solve"
    dataset = "anticor5d"
    n = 1500
    #: One connection: the gateway serializes one dataset's solves, so a
    #: second connection only queues each request behind the other's solve;
    #: with two, the op p50 spread 21% and 30% of the median in two sets
    #: of ten runs.
    connections = 1
    #: Solution sizes, taken in turn so that every run solves the same mix.
    ks = (10, 12)
    #: The stream opens with this many constraints drawn from a fixed
    #: seed; their answers are the ones certified.
    probes = 4

    def config(self, workdir, port):
        return {
            "server": {"port": port},
            "datasets": [_synthetic(self.dataset, self.n, 5, 50)],
        }

    def stream(self, seed, seconds):
        # Distinct (k, lower, upper) triples.  Every triple has a positive
        # lower bound somewhere, so none equals an all-zero priming query.
        # Upper bounds of at least k/2 keep every solve to two BiGreedy+
        # iterations: a third (tight upper bounds) costs three times as
        # much, and a seed-dependent share of such solves made the tail
        # differ by 30% between runs.
        count = int(60 * seconds) + 50
        seen, ops = set(), []
        for rng_seed, total in ((0, self.probes), (seed, count)):
            rng = np.random.default_rng([rng_seed, 5])
            while len(ops) < total:
                k = self.ks[len(ops) % len(self.ks)]
                lower = [int(v) for v in rng.integers(0, k // 3 + 1, size=3)]
                upper = [int(max(lo + 1, v)) for lo, v in
                         zip(lower, rng.integers((k + 1) // 2, k + 1, size=3))]
                key = (k, tuple(lower), tuple(upper))
                if sum(lower) == 0 or sum(upper) < k or key in seen:
                    continue
                seen.add(key)
                ops.append(Op("query", {
                    "dataset": self.dataset,
                    "constraint": {"k": k, "lower": lower, "upper": upper},
                }))
        return ops

    def prime(self):
        # One unconstrained query per size builds that size's delta-net
        # and engine, so the window measures solves, not artifact builds.
        return [
            Op("query", {
                "dataset": self.dataset,
                "constraint": {"k": k, "lower": [0, 0, 0], "upper": [k, k, k]},
            })
            for k in self.ks
        ]

    def eval_indices(self, ops, seed):
        return [len(self.prime()) + i for i in range(self.probes)]


class LiveWrite(WarmHit):
    name = "live-write"
    spec_file = "live-write.toml"
    connections = 1
    live = True

    def config(self, workdir, port):
        (tenant,) = self._spec().all_tenants()
        return {
            "server": {"port": port, "wal_dir": str(workdir / "wal")},
            "datasets": [_synthetic(tenant.name, tenant.n, 2, 42, live=True)],
        }

    def stream(self, seed, seconds):
        from repro.scenarios import build_events
        from repro.server.config import DatasetSpec

        spec = self._spec()
        (tenant,) = spec.all_tenants()
        (raw,) = self.config(Path("."), 0)["datasets"]
        dataset = DatasetSpec(**raw).factory()()
        phase = replace(spec.phases[0], ops=int(400 * seconds) + 100)
        spec = replace(spec, phases=(phase,))
        ops = []
        for event in build_events(spec, {tenant.name: dataset}, seed=seed):
            op = event.op
            if op.kind == "query":
                payload = {"dataset": event.tenant, "k": int(op.k),
                           "eps": spec.workload.eps, "alpha": spec.workload.alpha,
                           "algorithm": spec.workload.algorithm}
            elif op.kind == "insert":
                payload = {"dataset": event.tenant, "op": "insert",
                           "key": int(op.key),
                           "point": [float(x) for x in op.point],
                           "group": int(op.group)}
            else:
                payload = {"dataset": event.tenant, "op": "delete",
                           "key": int(op.key)}
            ops.append(Op(op.kind, payload))
        # Keep the scenario's writes and reads, each in their order, but
        # put one read after every run of equally many writes.  A read's
        # cost grows with the writes before it (refresh and re-solve): with
        # the scenario's random interleaving the in-process read p50 ranged
        # from 2.1 to 3.1 ms over five seeds, with this one 3.2 to 3.9 ms.
        reads = [op for op in ops if op.kind == "query"]
        writes = [op for op in ops if op.kind != "query"]
        step = max(1, round(len(writes) / len(reads)))
        ordered = []
        for i, write in enumerate(writes):
            ordered.append(write)
            if (i + 1) % step == 0 and reads:
                ordered.append(reads.pop(0))
        return ordered + reads

    def eval_indices(self, ops, seed):
        # Answers depend on the seeded writes before them, so no set is
        # the same across seeds: certify one read per size k, drawn with
        # the seed from the first 60 ops, which every run serves.
        by_k = {}
        for i, op in enumerate(ops[:60]):
            if op.kind == "query":
                by_k.setdefault(op.payload["k"], []).append(i)
        rng = np.random.default_rng([seed, 7])
        shift = len(self.prime())
        return sorted(shift + int(rng.choice(by_k[k])) for k in sorted(by_k))

    def provenance(self, config):
        return {"wal_flush": "write+flush+fsync per acked write"}


class RoutedBurst(WarmHit):
    name = "routed-burst"
    spec_file = "routed-burst.toml"
    open_loop = True
    cluster = True
    connections = 1
    #: mean offered rate (requests/s); the burst phase runs 2x faster.
    rate = 120.0

    def config(self, workdir, port):
        # No registry byte budget: at 11.5 MB against the fleet's 11.8 MB
        # of caches, 100 to 120 snapshot restores per 10 s window queued
        # the open loop, and the op p50 ranged from 4.5 to 8.4 ms over
        # five seeds.
        tenants = self._spec().all_tenants()
        return {
            "server": {"port": port},
            "cluster": {"workers": 1, "replicas": 1},
            "datasets": [
                _synthetic(t.name, t.n, 2, 60 + i) for i, t in enumerate(tenants)
            ],
        }

    def stream(self, seed, seconds):
        from repro.scenarios import build_trace

        spec = self._spec()
        count = int(round(self.rate * seconds))
        spec = replace(spec, workload=replace(spec.workload, requests=count))
        trace = build_trace(spec, seed=seed)
        # Rescale the trace's abstract clock onto the window: the mean
        # rate becomes `rate`, the burst phase keeps its 2x compression.
        scale = seconds / trace[-1].at
        return [replace(_trace_query(r), at=r.at * scale - scale * trace[0].at)
                for r in trace]

    def provenance(self, config):
        return {"offered_rate_rps": self.rate}


WORKLOADS = {w.name: w for w in (WarmHit(), ColdSolve(), LiveWrite(), RoutedBurst())}
