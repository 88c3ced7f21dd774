"""One workload run in a fresh process; started by run.py.

Prints ``READY`` once set-up (imports, input generation, warm-up) is done,
then times the workload's rounds, checks every result after its round,
and prints one JSON line with the counts and the workload's measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import clock
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def import_times(speed: float, runs: int = 3) -> dict:
    """Median cumulative import time of ``twodof.cli`` and of the scipy
    modules it pulls in, from ``-X importtime`` in fresh processes, scaled
    by ``speed`` to the reference speed."""
    cli, scipy = [], []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import twodof.cli"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        # Children are listed before their parent; read bottom-up so each
        # entry's enclosing imports are on the stack.
        stack: list[tuple[int, bool]] = []
        cli_us = scipy_us = 0
        for line in reversed(proc.stderr.splitlines()):
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name_field = parts[2]
            level = len(name_field) - len(name_field.lstrip())
            name = name_field.strip()
            while stack and stack[-1][0] >= level:
                stack.pop()
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if is_scipy and not any(s for _, s in stack):
                scipy_us += int(parts[1])
            if name == "twodof.cli":
                cli_us = int(parts[1])
            stack.append((level, is_scipy))
        cli.append(cli_us / 1000)
        scipy.append(scipy_us / 1000)
    return {
        "cli.import_ms": {"value": statistics.median(cli) * speed, "unit": "ms"},
        "cli.import_scipy_ms": {"value": statistics.median(scipy) * speed, "unit": "ms"},
    }


def tail(latencies: list[float]) -> float:
    """The highest latency with at least ten ops beyond it."""
    ordered = sorted(latencies)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, args.rounds, Path(args.out), bool(args.trace))
    in_process = cls is not workloads.CliMatch
    tracer = None
    if in_process:
        import twodof

        src = (ROOT / "src").resolve()
        if src not in Path(twodof.__file__).resolve().parents:
            print(f"twodof was imported from {twodof.__file__}, not from {src}", file=sys.stderr)
            return 3
        if args.trace:
            tracer = tracing.install()  # before set-up binds the functions it calls
    elif args.trace:
        tracer = wl.tracer = tracing.Tracer()
    wl.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # Op times are scaled to the reference speed (see clock.py): each op is
    # divided by the machine's slowdown measured just before and after it.
    latencies: list[float] = []
    slowdowns: list[float] = []
    raw_s = 0.0
    counts: Counter[str] = Counter()
    messages: Counter[str] = Counter()
    for r in range(args.rounds):
        ops = wl.ops(r)
        results, scaled = [], []
        before = clock.slowdown()
        for op in ops:
            if tracer is not None and in_process:
                tracer.active = True
            start = perf_counter()
            try:
                result = wl.run(op)
            except Exception as exc:  # the op failed; its check records why
                result = exc
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.active = False
            after = clock.slowdown()
            slowdowns.append((before + after) / 2)
            scaled.append(elapsed / slowdowns[-1])
            raw_s += elapsed
            before = after
            results.append(result)
        latencies.extend(scaled)
        for op, result in zip(ops, results):
            outcome, message = wl.check(op, result)
            counts[outcome] += 1
            if message:
                messages[f"{outcome}: {message}"] += 1

    for message, n in messages.most_common():
        print(f"{n} x {message}", file=sys.stderr)
    attempted = len(latencies)
    if tracer is not None:
        speed = 1 / statistics.median(slowdowns)
        metrics = tracing.per_layer_metrics(tracer, attempted, speed)
        metrics.update(import_times(speed))
        Path(args.out, f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps(tracer.export(), indent=1, sort_keys=True)
        )
    else:
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        metrics = {
            "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1000, "unit": "ms"},
            "op_tail_ms": {"value": tail(latencies) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
        }
    print(json.dumps({
        "attempted": attempted,
        "failed": counts[workloads.Outcome.FAILED],
        "wrong": counts[workloads.Outcome.WRONG],
        "timed_s": sum(latencies),
        "raw_timed_s": raw_s,
        "median_slowdown": statistics.median(slowdowns),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
