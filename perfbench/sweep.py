"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/sweep.py --workload ground [--workload scan ...] \\
        [--seeds 10] [--first-seed 1] [--seconds S] [--trace] [--out FILE]

For each workload it runs run.py once per seed, one run at a time, and
prints every metric's median over the seeds and its spread: the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the metric's bound from
BENCHMARK.json.  A spread at or above a third of the bound is flagged.
``--out`` writes the raw runs and the summary as JSON.
``perfbench/baseline.json`` holds the values, medians and quartiles of one
untraced and one traced sweep of the seed commit.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    env = json.loads(next(x for x in lines if x.startswith("env: "))[5:])
    return json.loads(lines[-1]), env


def summarize(values, bound):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True,
                    choices=[w["name"] for w in BENCH["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    specs = BENCH["per_layer"] if args.trace else BENCH["end_to_end"]
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for wl in args.workload:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res, env = run_once(wl, seed, args.seconds, args.trace)
            runs.append(dict(res, seed=seed))
            print(f"{wl} seed={seed} attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
                  flush=True)
        summary = {}
        for spec in specs:
            vals = [r["metrics"][spec["name"]]["value"] for r in runs]
            summary[spec["name"]] = dict(summarize(vals, spec.get("bound")),
                                         unit=spec["unit"])
        report["workloads"][wl] = {"env": env, "runs": runs, "summary": summary}
        print(f"== {wl}: {len(runs)} seeds, failed ops {sum(r['failed'] for r in runs)}")
        for name, s in summary.items():
            flag = ""
            if s["bound"] is not None and not s["spread"] < s["bound"] / 3:
                flag = "  <-- spread >= bound/3"
            print(f"  {name:40s} median {s['median']:.6g} {s['unit']:9s} "
                  f"spread {s['spread']:.4f} bound {s['bound']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
