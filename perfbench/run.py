"""Layered benchmark of the twodof package.

    python3 perfbench/run.py --workload youla-mimo --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a fresh Python
process (perfbench/worker.py) that imports the package from ``src/`` of
the same checkout.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``).
Results and traces are also written under ``.perfbench_out/``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# Round lengths on the reference machine (perfbench/README.md); a run does
# the fixed number of rounds that takes --seconds there.
NOMINAL_ROUND_S = {"youla-mimo": 2.5, "siso-design": 1.9, "cli-match": 6.0}
SETUP_PROBES = 5  # set-up-only processes; setup_s is the median of their times
WORKER_TIMEOUT_S = 170


def spawn(args, rounds: int, setup_only: bool, env) -> tuple[float, list[str]]:
    """Run one worker; return its set-up time and its output lines."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--rounds", str(rounds),
        "--trace", str(args.trace), "--out", str(OUT),
    ] + (["--setup-only"] if setup_only else [])
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = perf_counter() - start
            else:
                lines.append(line.rstrip("\n"))
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker exited with code {code}")
    return ready, lines


def setup_time(args, rounds: int, env) -> float:
    """Set-up time of one fresh worker, scaled to the reference speed."""
    before = clock.slowdown()
    ready, _ = spawn(args, rounds, True, env)
    return ready / ((before + clock.slowdown()) / 2)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "twodof" / "__init__.py").is_file():
        print(f"no twodof package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # One thread per process, and set iteration order fixed so that traced
    # counts repeat exactly.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))

    try:
        setups = [] if args.trace else [setup_time(args, rounds, env) for _ in range(SETUP_PROBES)]
        _, lines = spawn(args, rounds, False, env)
    except RuntimeError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])
    metrics = report["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    result = {
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(
        f"{args.workload}: {report['attempted']} ops in {rounds} rounds, {report['failed']} failed,"
        f" {report['wrong']} wrong, {report['timed_s']:.3f} s timed at reference speed,"
        f" {report['raw_timed_s']:.3f} s raw (median slowdown {report['median_slowdown']:.3f})"
    )
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
