"""Self-test of the benchmark's answer checks.

    python3 perfbench/selftest.py

For each workload, the package function whose answer the workload checks is
wrapped to return a slightly wrong answer, and the benchmark's op loop must
count the op as failed; the same op with the function left alone must pass.
Also checks that a run inheriting MASSNLS_WORKERS is refused.  Exits 0 when
every case holds.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import worker

M = worker.import_massnls()
import workloads  # noqa: E402  (needs massnls on the path first)


def _ground_phi(rpt):
    # 1e-6 relative keeps phi inside (0, S^(3/2)/3); only the anchor catches it
    er = rpt.energy_report
    return dataclasses.replace(rpt, energy_report=dataclasses.replace(er, phi=er.phi * (1 + 1e-6)))


def _path_peak(mp):
    return dataclasses.replace(mp, t_at_max=mp.t_hat)


def _scan_verdict(res):
    first = res.records[0]
    records = [dataclasses.replace(first, passed=not first.passed)] + res.records[1:]
    return dataclasses.replace(res, records=records)


PLANTS = {
    "ground": [("ground_state_minimax", _ground_phi)],
    "valley_path": [("mountain_pass_path", _path_peak)],
    "scan": [("threshold_scan_subcritical", _scan_verdict),
             ("threshold_scan_critical", _scan_verdict)],
}


def _one_op(name, plants):
    wl = workloads.WORKLOADS[name](1)
    wl.setup()
    saved = {attr: getattr(M, attr) for attr, _ in plants}
    try:
        for attr, corrupt in plants:
            fn = saved[attr]
            setattr(M, attr, lambda *a, fn=fn, corrupt=corrupt, **k: corrupt(fn(*a, **k)))
        return worker.measure(wl, 0)
    finally:
        for attr, fn in saved.items():
            setattr(M, attr, fn)


def main():
    bad = []
    for name, plants in PLANTS.items():
        clean = _one_op(name, [])
        planted = _one_op(name, plants)
        print(f"{name}: clean failed {clean['failed']}/{clean['ops']}, "
              f"planted failed {planted['failed']}/{planted['ops']} "
              f"{[f['problems'] for f in planted['failures']]}")
        if clean["failed"] != 0 or planted["failed"] != planted["ops"]:
            bad.append(name)

    env = dict(os.environ, MASSNLS_WORKERS="1")
    run = subprocess.run([sys.executable, str(Path(__file__).with_name("run.py")),
                          "--workload", "ground", "--seed", "1", "--seconds", "1"],
                         env=env, capture_output=True, text=True, timeout=60)
    print(f"MASSNLS_WORKERS set: exit {run.returncode}, stdout {run.stdout!r}")
    if run.returncode == 0 or run.stdout:
        bad.append("MASSNLS_WORKERS refusal")

    if bad:
        print("SELFTEST FAILED: " + ", ".join(bad))
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
