"""The massnls benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload {ground,valley_path,scan} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; massnls is imported from ``src`` beside this directory.
With ``--trace 0`` set-up runs three times, each in a fresh process (the
first two only set up; the third then runs the ops for S seconds), and the
end-to-end metrics are printed.  With ``--trace 1`` one process sets up and
runs ops with every second op traced, and the per-layer metrics are printed.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

The program runs with its defaults: a run that inherits MASSNLS_WORKERS is
refused, since that setting would hide any change to the scan thread pool.
Exit codes: 0 on a completed run (even with failed ops, which are counted),
2 on a refused run, 3 when a process fails or runs out of time.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "massnls"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None
SETUPS = 3          # set-up samples per untraced run; setup_s is their median
DEADLINE_S = 170.0  # every process of the run ends before this


class RunError(Exception):
    pass


def _source_digest():
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _worker(args, deadline, probe):
    """Run one worker; return (seconds from spawn to ready, its result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--probe"] if probe else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RunError(f"worker did not set up (got {line!r})")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RunError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return ready, (None if probe else json.loads(rest.strip().splitlines()[-1]))


def _print_metrics(metrics):
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in BENCH["workloads"]] if BENCH else None
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if "MASSNLS_WORKERS" in os.environ:
        print("refusing to run: MASSNLS_WORKERS is set; the benchmark measures "
              "the program's default scan pool", file=sys.stderr)
        return 2
    if BENCH is None or not (SRC / "__init__.py").is_file():
        print(f"refusing to run: no BENCHMARK.json or no massnls source under {ROOT}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            _, res = _worker(args, deadline, probe=False)
            setups = []
        else:
            setups = [_worker(args, deadline, probe=True)[0] for _ in range(SETUPS - 1)]
            ready, res = _worker(args, deadline, probe=False)
            setups.append(ready)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3

    env = dict(res["env"], commit=_commit(), source_sha256=_source_digest())
    print(f"massnls benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    ops, failed = res["ops"], res["failed"]
    if args.trace:
        units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        metrics = {k: {"value": res["layers"][k], "unit": u} for k, u in units.items()}
        _print_metrics(metrics)
        print("  span time per traced op (inclusive s, self s):")
        for name, (incl, own) in sorted(res["self_times"].items()):
            print(f"    {name:36s} {incl:.6g} {own:.6g}")
    else:
        measured = dict(res, setup_s=statistics.median(setups))
        units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        metrics = {k: {"value": measured[k], "unit": u} for k, u in units.items()}
        print("  setup samples (s): " + ", ".join(f"{s:.4f}" for s in setups))
        _print_metrics(metrics)
        print(f"  op_tail_s is the p{res['tail_percentile']:.1f} of {ops} ops "
              f"({res['tail_beyond']} beyond it)")
    print(f"  fail_frac {failed / ops:.6g} ({failed} of {ops} ops)")
    for f in res["failures"]:
        print(f"  FAILED op {f['op']} {f['input']}: {'; '.join(f['problems'])}")
    print(json.dumps({"correct": failed == 0, "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
