"""One workload process: set up, then run rounds as a closed loop with one
client, and print one JSON line with what it measured.

    python3 perfbench/worker.py --workload W --seed N --mode setup
    python3 perfbench/worker.py --workload W --seed N --mode timed --seconds S
    python3 perfbench/worker.py --workload W --seed N --mode fixed --rounds R [--trace]

`setup` stops after set-up (import, then one checked op of each kind from
the warm-up stream);
`timed` runs whole rounds until S seconds have passed and at least
MIN_OPS ops were timed; `fixed` runs exactly R rounds, optionally with the
per-layer tracer on, so that its counts and result digest are exact.

Times are wall-clock (`time.perf_counter()`); the process has one thread
and runs one op at a time.  Run from the root of a kvertex checkout;
run.py starts this process.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

MIN_OPS = 100


def percentile(sorted_values, q):
    """Nearest-rank percentile of a non-empty ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[rank - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true",
                    help="one case per generator per round (self-test)")
    ap.add_argument("--corrupt", metavar="KIND",
                    help="alter the first result of this op kind before its check (self-test)")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import kvertex
    import kvertex.cli  # noqa: F401  (the cli workload's entry point)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    import workloads

    work_dir = os.path.join(os.getcwd(), ".perfbench_work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        return run(args, kvertex, workloads, tracer, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another worker's directory is still there


def run(args, kvertex, workloads, tracer, work_dir) -> int:
    wl = workloads.Workload(args.workload, args.seed, work_dir, tiny=args.tiny)
    for op in wl.warm_up_ops():
        op.check(op.call())
    setup_s = time.perf_counter() - T_START
    if args.mode == "setup":
        emit({"setup_s": setup_s})
        return 0
    pending = wl.next_round()

    latencies = []
    failed = 0
    per_kind: dict[str, tuple] = {}
    corrupt = args.corrupt
    digest = hashlib.sha256()
    clock = time.perf_counter
    deadline = clock() + args.seconds
    rounds = 0
    round_rates = []
    while True:
        round_s = 0.0
        for op in pending:
            if tracer is not None:
                tracer.active = True
            t0 = clock()
            try:
                result = op.call()
                error = None
            except Exception as exc:  # a raising op counts as failed
                result, error = None, exc
            t1 = clock()
            if tracer is not None:
                tracer.active = False
            latencies.append(t1 - t0)
            round_s += t1 - t0
            count, spent = per_kind.get(op.kind, (0, 0.0))
            per_kind[op.kind] = (count + 1, spent + t1 - t0)
            if error is None and op.kind == corrupt:
                corrupt = None
                result = workloads.corrupt(result)
            ok = False
            if error is None:
                try:
                    ok = bool(op.check(result))
                except Exception as exc:
                    error = exc
            if not ok:
                failed += 1
                print(f"FAILED {op.kind} {op.key[:200]}: {error!r}", file=sys.stderr)
            digest.update(f"{op.kind}|{op.key}|{workloads.canon(result)}\n".encode())
        rounds += 1
        round_rates.append(len(pending) / round_s)
        if args.mode == "fixed":
            if rounds >= args.rounds:
                break
        elif clock() >= deadline and len(latencies) >= MIN_OPS:
            break
        pending = wl.next_round()

    lat = sorted(latencies)
    out = {
        "setup_s": setup_s,
        "ops": len(latencies),
        "rounds": rounds,
        "failed": failed,
        "timed_s": sum(latencies),
        "ops_per_s_median_round": statistics.median(round_rates),
        "latency_p50_s": percentile(lat, 50),
        "latency_p90_s": percentile(lat, 90),
        "ops_by_kind": {k: {"ops": n, "timed_s": t} for k, (n, t) in sorted(per_kind.items())},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "repeat_frac": wl.repeat_frac(),
        "digest": digest.hexdigest(),
        "python": platform.python_version(),
        "backend": kvertex.backend_name() if hasattr(kvertex, "backend_name") else "n/a",
    }
    if tracer is not None:
        out["spans"] = {name: {"calls": st.calls, "self_s": st.self_s, "total_s": st.total_s}
                        for name, st in sorted(tracer.stats.items())}
        out["counts"] = dict(tracer.counts)
    emit(out)
    return 0


def emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
