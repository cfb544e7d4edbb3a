"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py        # from the repository root, about 30 seconds

Checks, for every workload:
  * an end-to-end run prints every end_to_end metric of BENCHMARK.json with
    its unit, and no op fails;
  * two traced runs of one seed print every per_layer metric with its unit,
    and repeat their exact counts and result digest;
  * for every op kind, a result of that kind altered inside the benchmark
    (workloads.corrupt) is caught by a check;
and that run.py refuses to run, without a result line, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("suites", "univariate", "cli")


def run(cmd, cwd=ROOT):
    proc = subprocess.run([sys.executable, *cmd], capture_output=True, text=True, cwd=cwd,
                          timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def result_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def info_line(stdout):
    lines = [ln for ln in stdout.splitlines() if ln.startswith("info ")]
    return json.loads(lines[-1][len("info "):])


def expect(cond, message, failures):
    print(("ok   " if cond else "FAIL ") + message, flush=True)
    if not cond:
        failures.append(message)


def check_metrics(result, spec, what, failures):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result keys", failures)
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{what}: metric names and units match BENCHMARK.json", failures)
    expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
           f"{what}: metric values are numbers", failures)
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{what}: correct, no failed ops", failures)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bench = [os.path.join(HERE, "run.py")]
    failures: list[str] = []
    for wl in WORKLOADS:
        code, out, err = run(bench + ["--workload", wl, "--seed", "3", "--seconds", "1",
                                      "--trace", "0", "--tiny"])
        expect(code == 0, f"{wl}: end-to-end run exits 0", failures)
        if code == 0:
            result = result_line(out)
            check_metrics(result, spec["end_to_end"], f"{wl} end-to-end", failures)
            expect(result["metrics"]["ok_frac"]["value"] == 1.0, f"{wl}: ok_frac is 1", failures)
        else:
            print(err[-2000:])

        traced, kinds = [], []
        for _ in range(2):
            code, out, err = run(bench + ["--workload", wl, "--seed", "5", "--seconds", "1",
                                          "--trace", "1", "--tiny"])
            expect(code == 0, f"{wl}: traced run exits 0", failures)
            if code != 0:
                print(err[-2000:])
                break
            check_metrics(result_line(out), spec["per_layer"], f"{wl} traced", failures)
            traced.append(info_line(out))
            kinds = sorted(traced[-1]["ops_by_kind"])
        if len(traced) == 2:
            expect(traced[0]["exact_counts"] == traced[1]["exact_counts"],
                   f"{wl}: exact counts repeat across two runs of one seed", failures)
            expect(traced[0]["digest"] == traced[1]["digest"],
                   f"{wl}: result digest repeats across two runs of one seed", failures)

        caught = []
        for kind in kinds:
            code, out, err = run([os.path.join(HERE, "worker.py"), "--workload", wl, "--seed", "7",
                                  "--mode", "fixed", "--rounds", "1", "--tiny", "--corrupt", kind])
            if code == 0 and json.loads(out.strip().splitlines()[-1])["failed"] >= 1:
                caught.append(kind)
        expect(kinds and caught == kinds,
               f"{wl}: a corrupted result is caught for {len(caught)} of {len(kinds)} op kinds"
               + "".join(f"; missed {k}" for k in kinds if k not in caught), failures)

    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out, _err = run(spec["command"][1:] + ["--workload", "suites", "--seed", "1",
                                                     "--seconds", "1", "--trace", "0"], cwd=bare)
        expect(code != 0 and '"correct"' not in out,
               "outside a checkout: nonzero exit and no result line", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass

    print(f"{'FAILED' if failures else 'passed'}: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
