"""The repository's benchmark: four serving workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload warm-hit --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics against ``repro server`` /
``repro cluster`` processes started from a generated config.  ``--trace 1``
measures the same window twice, untraced and then against the same
server started through ``perfbench/launcher.py``, which wraps each
layer's entry points, and prints the per-layer metrics.  ``--repeat N``
runs the workload N times with seeds ``seed .. seed+N-1`` and prints each
end-to-end metric's median, quartiles and relative spread.

The last line of standard output is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before it
carries the run's provenance.  A run whose answers fail the correctness
gate, or whose generator fell behind, prints ``correct: false`` and no
metrics, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    ROOT,
    WORK_ROOT,
    ServingProcess,
    base_provenance,
    block_rate,
    dump_json,
    filesystem_of,
    free_port,
    median,
    percentile,
    require_source,
    tail_ok,
)

#: Serving-process launches per run; ``setup_s`` is their median.
SETUPS = 5
#: Latency by op kind, and its tails, go into the provenance, not the
#: metrics.  Over ten runs of one workload the query p99 spread 50% to 65%
#: and the p90 up to 38% (IQR over median), following the share of CPU
#: time the host stole; the live-write read p50 spread 17%, since a
#: read's cost depends on the seeded writes before it.  Each percentile
#: is given only where ten samples lie beyond it.
PERCENTILES = (50.0, 90.0, 99.0)
#: An open-loop run whose dispatcher handed ops over later than this
#: (p99) is invalid: the generator, not the program, set the pace.
SEND_LAG_LIMIT_MS = 50.0


class RunInvalid(Exception):
    """The run cannot publish numbers (gate failure or invalid load)."""


def _serving_argv(wl, config_path: Path, spans: Path | None) -> list[str]:
    mode = "cluster" if wl.cluster else "server"
    if spans is None:
        return [sys.executable, "-m", "repro", mode, str(config_path)]
    return [sys.executable, str(BENCH_DIR / "launcher.py"), mode,
            str(config_path), "--spans", str(spans)]


def _reset(workdir: Path) -> None:
    for sub in ("wal", "spill", "spans"):
        shutil.rmtree(workdir / sub, ignore_errors=True)
    (workdir / "spans").mkdir(parents=True)


def set_up(wl, workdir: Path, prime, *, traced: bool):
    """Launch the serving process(es) and prime them; returns the live process.

    Returns ``(process, config, setup_s, prime_s, prime_records)``.
    """
    import loadgen

    _reset(workdir)
    port = free_port()
    raw = wl.config(workdir, port)
    config_path = workdir / "config.json"
    dump_json(config_path, raw)
    spans = workdir / "spans" / "server" if traced else None
    proc = ServingProcess(_serving_argv(wl, config_path, spans),
                          workdir / "serving.log", port)
    t0 = time.perf_counter()
    proc.start()
    try:
        proc.wait_ready()
        ready = time.perf_counter()
        records = loadgen.send_all(port, prime)
        done = time.perf_counter()
    except BaseException:
        proc.stop()
        raise
    if not all(r.ok for r in records):
        proc.stop()
        raise RunInvalid(f"priming failed; see {workdir / 'serving.log'}")
    return proc, raw, done - t0, done - ready, records


def measure(wl, proc, ops, seconds):
    import loadgen

    loop = loadgen.open_loop if wl.open_loop else loadgen.closed_loop
    return loop(proc.port, ops, connections=wl.connections, seconds=seconds)


def gate_and_score(wl, raw, prime, prime_runs, ops, runs, seed):
    """Replay every served op, check the answers, certify MHR.

    ``prime_runs`` / ``runs`` are lists of record lists (one per serving
    process).  Returns ``(problems, certified, answers)``: ``certified``
    maps positions in ``prime + ops`` to certified MHR, ``answers`` the
    same positions to what the server answered.
    """
    import gate

    sent = max((r.index for recs in runs for r in recs), default=-1) + 1
    stream = ops[:sent]
    served = [None] * sent
    for recs in runs:
        for r in recs:
            if r.ok and served[r.index] is None:
                served[r.index] = r.data
            elif r.ok and served[r.index] != r.data:
                # Two windows of one seed answered differently: no replay
                # can match both, so the gate fails on this op.
                served[r.index] = {"conflict": True}
    shift = len(prime)
    answers = [r.data if r.ok else None for r in prime_runs[-1]] + served
    evaluate = {i for i in wl.eval_indices(ops, seed)
                if i < len(answers) and answers[i]}
    results, certified = gate.replay(
        raw, list(prime) + stream, live=wl.live, evaluate=evaluate
    )
    problems = []
    for recs in prime_runs:
        problems += gate.check(prime, [r.data if r.ok else None for r in recs],
                               results[:shift])
    problems += gate.check(stream, served, results[shift:])
    return problems, certified, answers


def end_to_end(wl, records, t0, setups, rss, certified) -> dict:
    ok = [r for r in records if r.ok]
    if not any(r.kind == "query" for r in ok):
        raise RunInvalid("no query was answered")
    if not certified:
        raise RunInvalid("no answer was certified")
    values = {
        "setup_s": (median(setups), "s"),
        "op_p50_ms": (median([r.latency * 1e3 for r in ok]), "ms"),
        "throughput_rps": (block_rate(t0, [r.done for r in ok]), "1/s"),
        "answer_mhr_mean": (statistics.fmean(certified.values()), "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def latency_by_kind(records) -> dict:
    """Query and write latency percentiles (ms) with their sample counts."""
    out = {}
    for kind, ops in (("query", ("query",)), ("write", ("insert", "delete"))):
        lat = [r.latency * 1e3 for r in records if r.ok and r.kind in ops]
        out[f"{kind}_samples"] = len(lat)
        for q in PERCENTILES:
            if tail_ok(len(lat), q):
                out[f"{kind}_p{q:g}_ms"] = percentile(lat, q)
    return out


def cpu_steal(since=None):
    """Share of CPU time the hypervisor stole since ``since`` (a prior call).

    Called with no argument, returns the raw counters to pass back in.
    Provenance only: it tells a slow run on a busy host from a slow program.
    """
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    if since is None:
        return fields
    delta = [a - b for a, b in zip(fields, since)]
    return delta[7] / max(1, sum(delta[:8]))


def send_lag_p99_ms(records) -> float | None:
    lags = [(r.handed - r.due) * 1e3 for r in records if r.handed]
    return percentile(lags, 99.0) if lags else None


def provenance(wl, raw, seed, seconds, workdir, extra) -> dict:
    from repro.server.config import parse_config

    config = parse_config(raw)
    prov = base_provenance(seed)
    prov.update({
        "workload": wl.name,
        "seconds": seconds,
        "loop": "open" if wl.open_loop else "closed",
        "connections": wl.connections,
        "planner_mode": config.planner.mode,
        "batch_window": config.batch_window,
        "tracing": config.tracing,
        "wal_flush": None,
        "wal_fs": filesystem_of(workdir) if config.wal_dir else None,
        "spill_fs": filesystem_of(workdir) if config.spill_dir else None,
    })
    prov.update(wl.provenance(raw))
    prov.update(extra)
    return prov


def run_once(wl, seed: int, seconds: float, workdir: Path, *, traced: bool,
             launches: int = SETUPS):
    """Set up ``launches`` times, measure one window on the last serving process.

    Returns a dict of the parts the gate and the metrics need.
    """
    ops = wl.stream(seed, seconds)
    prime = wl.prime()
    setups, prime_s, prime_runs = [], [], []
    steal = cpu_steal()
    proc = None
    try:
        for i in range(launches):
            if proc is not None:
                proc.stop()
            proc, raw, setup_s, p_s, recs = set_up(wl, workdir, prime,
                                                   traced=traced)
            setups.append(setup_s)
            prime_s.append(p_s)
            prime_runs.append(recs)
        window = {}
        if traced:
            import tracing

            before = tracing.counters(wl, proc.port)
            client_log = tracing.SpanLog()
            undo = tracing.install_client(client_log)
            try:
                records, t0 = measure(wl, proc, ops, seconds)
            finally:
                undo()
            window["t1"] = time.perf_counter()
            after = tracing.counters(wl, proc.port)
            window["counters"] = {k: after[k] - before[k] for k in after}
            window["hop_ms"] = tracing.router_hop_ms(wl, proc.port, ops, records)
            window["client_spans"] = client_log.spans
        else:
            records, t0 = measure(wl, proc, ops, seconds)
        rss = proc.peak_rss_mb()
        steal = cpu_steal(steal)
    finally:
        if proc is not None:
            proc.stop()
    if traced:
        window["server_spans"] = tracing.load_spans(workdir / "spans")
    return {
        "ops": ops, "prime": prime, "raw": raw, "setups": setups,
        "prime_s": prime_s, "prime_runs": prime_runs, "records": records,
        "t0": t0, "rss": rss, "window": window, "steal": steal,
    }


def run(wl, seed: int, seconds: float, trace: bool, workdir: Path):
    """Returns ``(result, provenance)``; raises RunInvalid on a failed gate."""
    if trace:
        # The untraced reference window gives trace_overhead_frac.
        runs = [
            run_once(wl, seed, seconds, workdir / "plain", traced=False,
                     launches=1),
            run_once(wl, seed, seconds, workdir / "traced", traced=True,
                     launches=1),
        ]
    else:
        runs = [run_once(wl, seed, seconds, workdir / "plain", traced=False)]
    main = runs[-1]
    problems, certified, answers = gate_and_score(
        wl, main["raw"], main["prime"],
        [p for r in runs for p in r["prime_runs"]], main["ops"],
        [r["records"] for r in runs], seed,
    )
    if problems:
        raise RunInvalid(
            f"{len(problems)} served answer(s) failed the gate: {problems[:3]}"
        )
    for r in runs:
        lag = send_lag_p99_ms(r["records"])
        if lag is not None and lag > SEND_LAG_LIMIT_MS:
            raise RunInvalid(f"generator fell behind: send lag p99 {lag:.1f} ms")
    records = main["records"]
    attempted, failed = len(records), sum(not r.ok for r in records)
    gaps = [answers[i]["mhr_estimate"] - mhr for i, mhr in certified.items()
            if answers[i].get("mhr_estimate") is not None]
    extra = {
        "setups_s": main["setups"],
        "prime_s": main["prime_s"],
        **latency_by_kind(records),
        "failed_frac": failed / attempted,
        "send_lag_p99_ms": lag,
        "certified_answers": len(certified),
        "mhr_estimate_gap_mean": statistics.fmean(gaps) if gaps else None,
        "cpu_steal_frac": main["steal"],
    }
    if trace:
        import tracing

        plain = end_to_end(wl, runs[0]["records"], runs[0]["t0"],
                           runs[0]["setups"], runs[0]["rss"], certified)
        traced = end_to_end(wl, records, main["t0"], main["setups"],
                            main["rss"], certified)
        window = dict(main["window"])
        window.update(
            t0=main["t0"], send_lag_ms=lag, prime_s=main["prime_s"][0],
            plain_p50_ms=plain["op_p50_ms"]["value"],
            traced_p50_ms=traced["op_p50_ms"]["value"],
        )
        metrics = tracing.per_layer(wl, window, window.pop("server_spans"),
                                    window.pop("client_spans"), extra)
    else:
        metrics = end_to_end(wl, records, main["t0"], main["setups"],
                             main["rss"], certified)
    prov = provenance(wl, main["raw"], seed, seconds, workdir, extra)
    return (
        {"correct": True, "attempted": attempted, "failed": failed,
         "metrics": metrics},
        prov,
    )


# --------------------------------------------------------------------- #
# steadiness report
# --------------------------------------------------------------------- #


def steadiness(args) -> int:
    """Run one workload ``--repeat`` times and report each metric's spread.

    The provenance's latency percentiles (not gated) are reported too,
    where every run gave them.
    """
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    info: dict[str, list[float]] = {}
    for i in range(args.repeat):
        seed = args.seed + i
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if out.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {out.returncode})\n"
                  f"{out.stderr[-2000:]}")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        prov = json.loads(lines[-2])["provenance"]
        for name, v in prov.items():
            if name.endswith("_ms") and name.startswith(("query_", "write_")):
                info.setdefault(name, []).append(v)
        print(f"seed {seed} (steal {prov['cpu_steal_frac']:.3f}): " + ", ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
            flush=True)
    info = {k: v for k, v in info.items() if len(v) == args.repeat}
    report = {}
    print(f"\n{args.workload}: {args.repeat} runs")
    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
          f"{'bound':>8}")
    for name, vals in [*values.items(), *info.items()]:
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        report[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                        "bound": bound, "values": vals}
        flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
        print(f"{name:<18}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}"
              f"{bound if bound is not None else '-':>8}{flag}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "spread": report}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness report over this many seeds")
    args = parser.parse_args(argv)
    require_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    if args.repeat:
        return steadiness(args)
    wl = WORKLOADS[args.workload]
    workdir = WORK_ROOT / f"{wl.name}-{os.getpid()}"
    try:
        result, prov = run(wl, args.seed, args.seconds, bool(args.trace), workdir)
    except RunInvalid as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
