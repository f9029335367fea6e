"""One benchmark process: set up a workload, then run its ops in a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--probe]

Prints ``ready`` once set-up is done (run.py times process start to this
line), then, unless ``--probe``, runs ops until S seconds have passed and
prints one JSON line with the op statistics.  With ``--trace 1`` every
input runs twice, traced and then untraced, and the line also carries the
per-layer metrics.
Imports massnls from the ``src`` directory next to this one, and only from
there.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_massnls():
    sys.path.insert(0, str(SRC))
    import massnls

    where = Path(massnls.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"massnls imported from {where}, not from {SRC}")
    return massnls


def tail(times):
    """(value, percentile, ops beyond): the highest percentile of the sorted
    op times with at least 10 ops beyond it, or the minimum if there are
    fewer than 11 ops."""
    s = sorted(times)
    k = max(0, len(s) - 11)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def measure(wl, seconds, tracer=None):
    """Closed loop: each op starts when the previous one and its check end.

    With a tracer every input runs twice, traced and then untraced, so the
    tracing overhead is read off the same inputs.
    """
    times, failures, traced = [], [], []
    n_failed = 0
    inputs = wl.inputs()
    cpu0 = time.process_time()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        on = tracer is not None and i % 2 == 0
        if tracer is None or on:
            x = next(inputs)
        if on:
            spans.install(tracer)
            tracer.op = i
            traced.append(i)
        t0 = time.perf_counter()
        try:
            out = tracer.call("op", wl.run, (x,), {}) if on else wl.run(x)
            problems = None
        except Exception as exc:  # an op that raises is a failed op
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0
        if on:
            tracer.uninstall()
            tracer.op = None
        if problems is None:
            problems = wl.check(x, out)
        if problems:
            n_failed += 1
            if len(failures) < 5:
                failures.append({"op": i, "input": repr(x), "problems": problems})
        times.append(dt)
        i += 1
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0

    value, pct, beyond = tail(times)
    result = {
        "ops": len(times),
        "failed": n_failed,
        "failures": failures,
        "op_p50_s": float(np.median(times)),
        "op_tail_s": value,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "ops_per_s": len(times) / wall,
        "cpu_per_op_s": cpu / len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers, self_times = spans.layer_metrics(tracer, traced)
        pairs = [(times[k], times[k + 1]) for k in traced if k + 1 < len(times)]
        layers["trace.overhead_frac"] = (
            float(np.median([a for a, _ in pairs]) / np.median([b for _, b in pairs]) - 1.0)
            if pairs else 0.0
        )
        result["layers"] = layers
        result["self_times"] = self_times
    return result


def environment(massnls):
    import scipy

    nproc = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "massnls": massnls.__version__,
        "nproc": nproc,
        "scan_workers": min(4, nproc),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    massnls = import_massnls()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.op = "setup"
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if tracer is not None:
        tracer.call("setup", wl.setup, (), {})
        tracer.uninstall()
        tracer.op = None
    else:
        wl.setup()
    print("ready", flush=True)
    if args.probe:
        return 0
    result = measure(wl, args.seconds, tracer)
    result["env"] = environment(massnls)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
