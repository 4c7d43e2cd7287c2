"""Correctness gate: replay the served stream in-process and compare.

Every served answer (ids and ``mhr_estimate``) must equal, bit for bit,
what an in-process :class:`repro.service.Gateway` answers when the same
ops (priming first, then the served stream in order) go through
``Gateway.drain()``; every write must be acked with the same version;
and every answer must satisfy its group bounds under
:mod:`repro.fairness`.  The replay also certifies the MHR of the
workload's chosen answers with :class:`repro.hms.MhrEvaluator` (outside
the timed window).
"""

from __future__ import annotations

import numpy as np


def _replay_config(raw: dict):
    """The run's config minus its WAL, which changes no answer and must not
    receive the replay's writes."""
    from repro.server.config import parse_config

    server = {k: v for k, v in raw.get("server", {}).items() if k != "wal_dir"}
    return parse_config({**raw, "server": server})


def _submit(gateway, op):
    from repro.fairness import FairnessConstraint

    p = op.payload
    if op.kind == "query":
        constraint = None
        if "constraint" in p:
            c = p["constraint"]
            constraint = FairnessConstraint(
                lower=np.asarray(c["lower"], dtype=np.int64),
                upper=np.asarray(c["upper"], dtype=np.int64),
                k=int(c["k"]),
            )
        return gateway.submit(
            p["dataset"],
            p.get("k"),
            constraint=constraint,
            eps=float(p.get("eps", 0.02)),
            algorithm=str(p.get("algorithm", "auto")),
            alpha=float(p.get("alpha", 0.1)),
        )
    if op.kind == "insert":
        return gateway.submit_update(
            p["dataset"], "insert", int(p["key"]),
            np.asarray(p["point"], dtype=np.float64), int(p["group"]),
        )
    return gateway.submit_update(p["dataset"], "delete", int(p["key"]))


def replay(raw_config: dict, ops, *, live: bool, evaluate: set[int]):
    """Answers for ``ops`` plus certified MHR per index.

    Returns ``(results, certified)``: ``results[i]`` is the Solution (or
    write version) for ``ops[i]``; ``certified[i]`` the MHR of answer
    ``i`` for every ``i`` in ``evaluate``, measured against the dataset
    as it stood when the answer was given.
    """
    from repro.hms.evaluation import MhrEvaluator
    from repro.server.config import build_registry
    from repro.service import Gateway

    config = _replay_config(raw_config)
    registry = build_registry(config)
    gateway = Gateway(
        registry, batch_window=config.batch_window, max_batch=config.max_batch
    )
    certified: dict[int, float] = {}
    if live:
        # One op per drain: the order the single live connection served.
        results = []
        for i, op in enumerate(ops):
            future = _submit(gateway, op)
            gateway.drain()
            results.append(future.result())
            if i in evaluate:
                points = registry.get(op.dataset).dataset.points
                certified[i] = MhrEvaluator(points).evaluate(
                    results[i].points
                ).value
        return results, certified
    futures = [_submit(gateway, op) for op in ops]
    gateway.drain()
    results = [f.result() for f in futures]
    evaluators = {}
    for i in sorted(evaluate):
        name = ops[i].dataset
        if name not in evaluators:
            evaluators[name] = MhrEvaluator(registry.get(name).dataset.points)
        certified[i] = evaluators[name].evaluate(results[i].points).value
    return results, certified


def check(ops, served, results) -> list[str]:
    """Mismatch descriptions (empty when every served answer is right).

    ``served[i]`` is the response ``data`` of op ``i`` or ``None`` when the
    op was not answered (shed, failed, or past the window).
    """
    problems = []
    for i, (op, data) in enumerate(zip(ops, served)):
        if data is None:
            continue
        want = results[i]
        if op.kind != "query":
            if data.get("version") != int(want):
                problems.append(f"op {i}: write version {data.get('version')} != {want}")
            continue
        ids = [int(v) for v in want.ids]
        est = None if want.mhr_estimate is None else float(want.mhr_estimate)
        if data.get("ids") != ids or data.get("mhr_estimate") != est:
            problems.append(f"op {i}: answer differs from the in-process replay")
            continue
        constraint = want.constraint
        if constraint is None or not constraint.satisfied_by(
            want.dataset.labels, want.indices
        ):
            problems.append(f"op {i}: answer violates its group bounds")
        elif data.get("group_counts") != [int(c) for c in want.group_counts()]:
            problems.append(f"op {i}: served group counts differ")
        elif data.get("violations") != 0:
            problems.append(f"op {i}: served violations {data.get('violations')}")
    return problems
