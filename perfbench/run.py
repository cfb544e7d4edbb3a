"""End-to-end and per-layer benchmark of kvertex.

    python3 perfbench/run.py --workload {suites,univariate,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a kvertex checkout (the directory holding src/ and
tests/).  Each workload runs in its own single-threaded Python process as a
closed loop with one client: the next operation starts when the previous
one has returned and been checked.

--trace 0 measures the end-to-end metrics: set-up time is the median of
nine processes, and the middle one of them goes on to run whole rounds for
S seconds; throughput is the median over rounds of ops per second of op
time.  --trace 1 runs a number of rounds fixed by S twice, untraced and
traced, and reports the per-layer numbers from the traced pass
(perfbench/tracer.py) together with the tracing overhead; the two passes
must produce the same result digest.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# A run may take --seconds plus this margin (the set-up processes, the
# round under way when time is up, a traced pass) before it gives up.
MARGIN_S = 150.0
# Set-up is timed in this many processes, half of them before the timed
# process and half after it, so that the median spans the whole run.
SETUP_SAMPLES = 9

# Rounds of the traced run per second of --seconds: a fixed amount of work
# for a given --seconds, so that its counts are exact; at 20 s, one suites
# round and passes of about 10 s for the others.
TRACE_ROUNDS_PER_S = {"suites": 1 / 30, "univariate": 1 / 5, "cli": 5.0}

# Span names that must record at least one call on a workload.
REQUIRED_SPANS = {
    "suites": ["scalars.binomial", "laurent.mul", "laurent.add", "laurent.div",
               "laurent.symmetrize", "series.expand", "residues.residue_k",
               "residues.oracle", "residues.diagonal", "quiver.vertex", "quiver.bracket",
               "quiver.chern", "quiver.axiom", "hopf", "freelie.bracket", "wallcross"],
    "univariate": ["scalars.cyclo", "scalars.binomial", "laurent.mul", "laurent.add",
                   "laurent.div", "series.expand", "series.pfrac", "residues.residue_k",
                   "residues.local"],
    "cli": ["cli", "exprparse", "laurent.mul", "laurent.add", "series.expand",
            "series.pfrac", "residues.residue_k", "hopf", "quiver.vertex",
            "quiver.bracket", "freelie.bracket", "wallcross"],
}

# Where each per_layer metric of BENCHMARK.json comes from: a span's field,
# an exact counter, or a value derived from the two passes.
LAYER_SOURCES = {
    "scalars.cyclo_calls": ("scalars.cyclo", "calls"),
    "scalars.cyclo_self_s": ("scalars.cyclo", "self_s"),
    "scalars.binomial_calls": ("scalars.binomial", "calls"),
    "scalars.binomial_self_s": ("scalars.binomial", "self_s"),
    "laurent.mul_calls": ("laurent.mul", "calls"),
    "laurent.mul_self_s": ("laurent.mul", "self_s"),
    "laurent.mul_term_pairs": ("count", "laurent.mul_term_pairs"),
    "laurent.mul_terms_out": ("count", "laurent.mul_terms_out"),
    "laurent.mul_useful_ratio": ("ratio", ""),
    "laurent.max_terms": ("count", "laurent.max_terms"),
    "laurent.add_calls": ("laurent.add", "calls"),
    "laurent.add_self_s": ("laurent.add", "self_s"),
    "laurent.div_self_s": ("laurent.div", "self_s"),
    "laurent.symmetrize_self_s": ("laurent.symmetrize", "self_s"),
    "laurent.frac_self_s": ("laurent.frac", "self_s"),
    "laurent.other_self_s": ("laurent.other", "self_s"),
    "series.expand_calls": ("series.expand", "calls"),
    "series.expand_self_s": ("series.expand", "self_s"),
    "series.pfrac_calls": ("series.pfrac", "calls"),
    "series.pfrac_self_s": ("series.pfrac", "self_s"),
    "series.other_self_s": ("series.other", "self_s"),
    "residues.residue_k_calls": ("residues.residue_k", "calls"),
    "residues.residue_k_self_s": ("residues.residue_k", "self_s"),
    "residues.oracle_self_s": ("residues.oracle", "self_s"),
    "residues.local_self_s": ("residues.local", "self_s"),
    "residues.diagonal_self_s": ("residues.diagonal", "self_s"),
    "residues.other_self_s": ("residues.other", "self_s"),
    "quiver.vertex_self_s": ("quiver.vertex", "self_s"),
    "quiver.bracket_calls": ("quiver.bracket", "calls"),
    "quiver.bracket_self_s": ("quiver.bracket", "self_s"),
    "quiver.chern_self_s": ("quiver.chern", "self_s"),
    "quiver.axiom_self_s": ("quiver.axiom", "self_s"),
    "hopf.calls": ("hopf", "calls"),
    "hopf.self_s": ("hopf", "self_s"),
    "freelie.bracket_calls": ("freelie.bracket", "calls"),
    "freelie.self_s": ("freelie.*", "self_s"),
    "wallcross.self_s": ("wallcross", "self_s"),
    "exprparse.calls": ("exprparse", "calls"),
    "exprparse.chars": ("count", "exprparse.chars"),
    "exprparse.self_s": ("exprparse", "self_s"),
    "cli.self_s": ("cli", "self_s"),
    "trace.overhead_frac": ("overhead", ""),
    "trace.op_s": ("op_s", ""),
    "inputs.repeat_frac": ("repeat", ""),
}


class BenchError(RuntimeError):
    pass


def worker(workload, seed, mode, deadline, extra=()):
    """Run one workload process to completion; return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("time budget exhausted")
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded the time budget") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def load_spec():
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def with_units(values, spec_metrics):
    """{name: (value, unit)} in the order and with the units of BENCHMARK.json."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metric(s) {', '.join(missing)}")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in spec_metrics}


def end_to_end(args, deadline):
    def setup():
        return worker(args.workload, args.seed, "setup", deadline, _flags(args))["setup_s"]

    setups = [setup() for _ in range(SETUP_SAMPLES // 2)]
    timed = worker(args.workload, args.seed, "timed", deadline,
                   ["--seconds", str(args.seconds), *_flags(args)])
    setups.append(timed["setup_s"])
    setups += [setup() for _ in range(SETUP_SAMPLES - len(setups))]
    ops, failed = timed["ops"], timed["failed"]
    metrics = with_units({
        "setup_s": statistics.median(setups),
        "ops_per_s": timed["ops_per_s_median_round"],
        "latency_p50_ms": timed["latency_p50_s"] * 1e3,
        "latency_p90_ms": timed["latency_p90_s"] * 1e3,
        "ok_frac": 1.0 - failed / ops,
        "peak_rss_mb": timed["peak_rss_mb"],
    }, load_spec()["end_to_end"])
    info(args, timed, {"setup_samples_s": setups, "failed_frac": failed / ops})
    return ops, failed, [], metrics


def per_layer(args, deadline):
    count = 1 if args.tiny else max(1, round(args.seconds * TRACE_ROUNDS_PER_S[args.workload]))
    rounds = ["--rounds", str(count), *_flags(args)]
    plain = worker(args.workload, args.seed, "fixed", deadline, rounds)
    traced = worker(args.workload, args.seed, "fixed", deadline, rounds + ["--trace"])
    problems = []
    if plain["digest"] != traced["digest"]:
        problems.append("result digests of the untraced and traced passes differ")
    spans = traced["spans"]
    for name in REQUIRED_SPANS[args.workload]:
        if spans.get(name, {}).get("calls", 0) == 0:
            problems.append(f"layer span {name} recorded no calls")
    counts = traced["counts"]
    values = {}
    for name, (source, field) in LAYER_SOURCES.items():
        if source == "count":
            value = counts[field]
        elif source == "ratio":
            pairs = counts["laurent.mul_term_pairs"]
            value = counts["laurent.mul_terms_out"] / pairs if pairs else 0.0
        elif source == "overhead":
            value = traced["timed_s"] / plain["timed_s"] - 1.0
        elif source == "op_s":
            value = traced["timed_s"]
        elif source == "repeat":
            value = traced["repeat_frac"]
        elif source.endswith(".*"):
            value = sum(st[field] for span, st in spans.items()
                        if span.startswith(source[:-1]))
        else:
            value = spans.get(source, {}).get(field, 0)
        values[name] = value
    metrics = with_units(values, load_spec()["per_layer"])
    exact = {n: v for n, (v, u) in metrics.items() if n.endswith(("_calls", ".calls"))}
    exact.update(counts)
    info(args, traced, {"exact_counts": exact, "untraced_digest": plain["digest"],
                        "spans": spans})
    ops = plain["ops"] + traced["ops"]
    return ops, plain["failed"] + traced["failed"], problems, metrics


def info(args, result, extra):
    """Print what a reader needs to reproduce or compare the run."""
    meta = {"workload": args.workload, "seed": args.seed, "python": result["python"],
            "backend": result["backend"], "ops": result["ops"], "rounds": result["rounds"],
            "digest": result["digest"], "repeat_frac": result["repeat_frac"],
            "ops_by_kind": result["ops_by_kind"], **extra}
    print("info " + json.dumps(meta, sort_keys=True))


def _flags(args):
    return ["--tiny"] if args.tiny else []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(REQUIRED_SPANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="one op per kind and one traced round (self-test only)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + args.seconds + MARGIN_S

    root = os.getcwd()
    missing = [p for p in (os.path.join("src", "kvertex", "__init__.py"),
                           os.path.join("tests", "golden"), os.path.join("tests", "data"))
               if not os.path.exists(os.path.join(root, p))]
    if missing:
        print(f"run.py: not a kvertex checkout (missing {', '.join(missing)}); "
              "run from the repository root", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(root, "src", "kvertex"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    try:
        if args.trace:
            attempted, failed, problems, metrics = per_layer(args, deadline)
        else:
            attempted, failed, problems, metrics = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload}.{name} = {value:.6g} {unit}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
