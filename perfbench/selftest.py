#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny scale.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that
  * the untraced run prints every end-to-end metric, with its declared
    unit, a non-zero value and a sample count in the detailed report;
  * the traced run prints every per-layer metric with its unit and a
    sample count, writes a valid Chrome trace, and (cpd workloads)
    leaves at most 10% of the traced solve unattributed;
  * a run with a deliberately corrupted output reports failures
    (correct false, failed_frac above 0).
It also checks that a directory holding only BENCHMARK.json and the
benchmark's files exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench", "out")
SEED = 1

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
           "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def summary(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def report(workload, traced):
    name = f"{workload}-seed{SEED}-report{'-traced' if traced else ''}.json"
    with open(os.path.join(OUT_DIR, name)) as f:
        return json.load(f)


def check_metrics(workload, label, result, rep, declared, nonzero):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} {label}: summary has exactly the contract's keys")
    check(result["correct"] and result["failed"] == 0 and
          result["attempted"] >= 1,
          f"{workload} {label}: correct, nothing failed")
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in declared],
          f"{workload} {label}: every declared metric, in order")
    for m in declared:
        got = metrics.get(m["name"], {})
        detail = rep["metrics"].get(m["name"], {})
        ok = (got.get("unit") == m["unit"] and
              isinstance(got.get("value"), (int, float)) and
              detail.get("unit") == m["unit"] and "n" in detail)
        if nonzero:
            ok = ok and got.get("value", 0) != 0 and detail.get("n", 0) >= 1
        check(ok, f"{workload} {label}: {m['name']} [{m['unit']}] "
                  f"value and n={detail.get('n')}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        res = summary(run(name, 0))
        check(res is not None, f"{name} untraced: exits 0 with a summary")
        if res:
            check_metrics(name, "untraced", res, report(name, False),
                          bench["end_to_end"], nonzero=True)

        res = summary(run(name, 1))
        check(res is not None, f"{name} traced: exits 0 with a summary")
        if res:
            check_metrics(name, "traced", res, report(name, True),
                          bench["per_layer"], nonzero=False)
            trace = os.path.join(OUT_DIR, f"{name}-seed{SEED}-chrome-trace.json")
            with open(trace) as f:
                events = json.load(f)["traceEvents"]
            check(len(events) > 0 and all(e["ph"] == "X" for e in events),
                  f"{name} traced: Chrome trace has complete events")
            if name.startswith("cpd-"):
                frac = res["metrics"]["trace.unattributed_frac"]["value"]
                check(0 <= frac <= 0.10,
                      f"{name} traced: unattributed {frac:.4f} <= 0.10")

        res = summary(run(name, 0, "--corrupt"))
        check(res is not None and not res["correct"] and res["failed"] > 0 and
              report(name, False)["failed_frac"] > 0,
              f"{name} corrupted: failures reach failed_frac "
              f"({res and res['failed']} of {res and res['attempted']})")

    # A directory with only BENCHMARK.json and the benchmark's files.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "bare directory: non-zero exit, no result printed")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failed" if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
