"""treeqaoa benchmark: one workload per invocation.

    python3 perfbench/run.py --workload depth_sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout that holds ``src/treeqaoa``. The workload
runs in a child process (``worker.py``) with OMP/OpenBLAS/MKL threads pinned
to 1; four more children before it only set up, so ``setup_s`` is the median
of five set-up times (process start to READY). With ``--trace 0`` the last
stdout line carries every end-to-end metric of BENCHMARK.json, with
``--trace 1`` every per-layer metric. A results file with the machine, the
seed and everything measured goes to ``perfbench/results/``.

``--scale smoke`` runs the smallest inputs (used by the smoke test);
``--record`` stores the first-pass output digests of this seed as the
reference that later runs are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("depth_sweep", "large_circuit", "noisy_success", "ground_truth")
SETUPS = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def spawn(args, setup_only: bool, deadline: float) -> tuple[float, list[str]]:
    """Start one worker; (seconds from start to READY, its other stdout lines)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0 or ready is None:
        raise BenchError(f"worker exited with code {code} (killed at the deadline if negative)")
    return ready, lines


def record(result: dict, scale: str) -> None:
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    seeds = ref["digests"].setdefault(scale, {}).setdefault(result["workload"], {})
    seeds[str(result["seed"])] = result["first_pass_digests"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "treeqaoa", "__init__.py")):
        print(f"error: no treeqaoa sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    deadline = time.monotonic() + DEADLINE_S
    setups = []
    try:
        for i in range(SETUPS):
            ready, lines = spawn(args, i < SETUPS - 1, deadline)
            setups.append(ready)
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    results = [line[len("RESULT "):] for line in lines if line.startswith("RESULT ")]
    if not results:
        print(f"error: {args.workload}: worker printed no result", file=sys.stderr)
        return 1
    result = json.loads(results[-1])
    result["setup_s"] = statistics.median(setups)
    result["setup_runs_s"] = setups

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["per_layer"] if args.trace else result
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in declared}

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, value in result["quality"].items():
        print(f"{name} {value:.6g} (first pass, not gated)")
    print(f"error_rate {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    if not args.trace:
        print(f"op_tail_ms is p{result['tail_percentile']:.1f} of "
              f"{result['latency_samples']} samples")
        raw = result["raw"]
        print(f"at the run's own machine speed (calibration loop {result['calib_median_ms']:.4g} ms, "
              f"reference {result['calib_ref_ms']:.4g} ms): ops_per_s {raw['ops_per_s']:.6g} op_p50_ms "
              f"{raw['op_p50_ms']:.6g} op_tail_ms {raw['op_tail_ms']:.6g} (fastest repetitions)")
    else:
        check = result["trace_check"]
        print(f"layer self times + harness {check['self_time_sum_s']:.6g} s vs traced op "
              f"wall {check['traced_op_wall_s']:.6g} s per pass")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-{args.scale}-trace{args.trace}.json"
    with open(os.path.join(HERE, "results", name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if args.record:
        if result["failed"]:
            print("error: not recording the digests of a run with failures", file=sys.stderr)
            return 1
        record(result, args.scale)

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
