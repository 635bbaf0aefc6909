#!/usr/bin/env python3
"""Steadiness command: is a workload's measurement repeatable?

Run from the root of the repository:

    python3 perfbench/steady.py --workload mp-splash [--runs 10]

Runs the workload --runs times, each with another --seed, and prints
every end-to-end metric's median and quartiles with its spread (the
distance between the quartiles as a share of the median) against the
bound in BENCHMARK.json. A spread below a third of the bound reads
"steady". setup_s is reported but not judged: its bound limits how far
its median may move, not its spread. The share of failed operations
must be the same in every run.

It then runs one round on the held-out seed (for the multiprocessor
workloads also as the simulated seed, --mp-seed) and confirms that
every configuration passes the oracle and property checks, apart from
configurations that hit the named run-loop-exit fault, which it lists.

Exits 0 when every judged spread is within its bound, the failed share
is constant and the held-out checks pass; 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
HELD_OUT_SEED = 7


def run(args):
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + args
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    if p.returncode != 0:
        raise SystemExit("run failed (exit %d): %s" % (p.returncode,
                                                       " ".join(args)))
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = str(bench["run_seconds"])

    results = []
    for i in range(a.runs):
        seed = 1 + i
        r = run(["--workload", a.workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", "0"])
        results.append(r)
        print("run %2d seed %-4d attempted %-4d failed %-3d %s" % (
            i + 1, seed, r["attempted"], r["failed"],
            "  ".join("%s=%.6g" % (k, v["value"])
                      for k, v in r["metrics"].items())))

    ok = True
    print("\n%-12s %12s %12s %12s %8s %6s" % (
        "metric", "median", "q1", "q3", "spread", "bound"))
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        if m["name"] == "setup_s":
            verdict = "not judged"
        elif spread <= m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"]:
            verdict = "within bound"
        else:
            verdict = "UNSTEADY"
            ok = False
        print("%-12s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%  %s" % (
            m["name"], med, q1, q3, 100 * spread, 100 * m["bound"],
            verdict))

    shares = {(r["failed"], r["attempted"]) for r in results}
    ratios = {f / n for f, n in shares}
    print("\nfailed share: %s" % ("constant" if len(ratios) == 1 else
                                 "VARIES %s" % sorted(shares)))
    ok &= len(ratios) == 1 and all(r["correct"] for r in results)

    # --seconds 1 is shorter than any round: exactly one round runs.
    held = HELD_OUT_SEED
    r = run(["--workload", a.workload, "--seed", str(held),
             "--mp-seed", str(held), "--seconds", "1", "--trace", "0"])
    ops = json.load(open(os.path.join(
        OUT, "%s-seed%d-trace0-ops.json" % (a.workload, held))))
    fault = [o["config"] for o in ops if not o["ok"] and o["named_fault"]]
    other = [o for o in ops if not o["ok"] and not o["named_fault"]]
    print("held-out seed %d: %d configs, %d pass, %d hit the run-loop "
          "exit fault%s" % (held, len(ops), len(ops) - len(fault) -
                            len(other), len(fault),
                            (" (" + ", ".join(fault) + ")") if fault else ""))
    for o in other:
        print("  FAILED %s: %s" % (o["config"], "; ".join(o["failures"])))
    ok &= not other and r["correct"]
    print("\n%s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
