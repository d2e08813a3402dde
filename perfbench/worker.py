"""One workload in one process: set up, signal READY, time, check, report.

Started by ``run.py``. Set-up is everything before READY: imports, writing
the input files, and the warm-up, which runs the workload's smoke corpus at
the default seed. Those warm-up outputs are checked against their recorded
digests, so every run checks exact output bytes whatever its seed. With
``--setup-only`` the process stops at READY, so the parent can time set-up
several times.

Timed phase: whole rounds of the corpus, cycling through it, until at least
one pass is done, stopping at the round boundary nearest to ``--seconds``
(round lengths differ between workloads, up to a whole pass on
large_circuit, so stopping at the first boundary past ``--seconds`` would
nearly double some runs). A traced run alternates traced and untraced
passes over the same corpus and stops after an untraced one, so the
tracing overhead is a paired difference. A call's wall time
covers the call alone; hashing and inspecting its output happen between
calls. Only the first pass is inspected: later passes repeat its inputs and
must reproduce its output digests byte for byte.

After every call the worker times a fixed pure-Python loop twice. The
timing metrics divide each call's wall time by these calibrations, so they
read as times at a fixed machine speed (see ``normalised`` and the README).

The last stdout line is ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import treeqaoa  # noqa: E402
from spans import FUNCTIONS, Tracer  # noqa: E402
from workloads import WORKLOADS, Inspection  # noqa: E402

DEFAULT_SEED = 1
CALIB_ITERS = 30_000     # the calibration loop's length
CALIB_SAMPLES = 2        # calibrations after every call
REF_CALIB_S = 0.002      # the loop's time at the reference speed


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's speed."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(CALIB_ITERS):
        acc += i * i % 7
    return (time.perf_counter_ns() - t0) / 1e9


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_call(wl, call, report: bool) -> bytes | None:
    """The call's output, or None if it raised (a failed op, not a crash).
    Repeated calls repeat their inputs, so only first runs print a trace."""
    try:
        return wl.run(call)
    except Exception:
        if report:
            print(f"{wl.name} {call.label}: {traceback.format_exc(limit=4)}", file=sys.stderr)
        return None


def inspect(wl, call, out: bytes | None) -> Inspection:
    if out is None:
        return Inspection(["call raised"], {})
    try:
        return wl.inspect(call, out)
    except Exception as exc:  # unreadable output is a failed op
        return Inspection([f"output unreadable: {exc!r}"], {})


def check_pass(wl, calls, found: list[Inspection], digests: list[str],
               recorded: list[str] | None, what: str) -> list[list[str]]:
    """Problems per call: its own checks, the pairing checks, the digests."""
    problems = [list(f.problems) for f in found]
    if all(f.quality for f in found):
        for i, problem in wl.pair_problems(calls, found):
            problems[i].append(problem)
    if recorded is not None:
        if len(recorded) != len(digests):
            recorded = [None] * len(digests)
        for i, (got, want) in enumerate(zip(digests, recorded)):
            if got != want:
                problems[i].append(f"{what}: output digest {got}, recorded {want}")
    return problems


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least 10
    samples above it. Below 20 samples no percentile at or above the
    median has 10 beyond it; the slowest sample is reported as p100."""
    n = len(samples)
    if n < 20:
        return 100.0, max(samples)
    q = 100.0 * (n - 10) / n
    return q, float(np.percentile(samples, q))


def normalised(walls: list[list[float]], marks: list[list[int]],
               speed: list[float]) -> list[float]:
    """Each call's seconds at the reference machine speed.

    A repetition's wall time is divided by the mean of the calibrations
    taken just before and just after it (``marks`` holds, per repetition,
    how many calibrations preceded it). This cancels the machine's slow
    swings in speed; the median over a call's repetitions drops the short
    ones. Scaled by ``REF_CALIB_S`` the result stays in seconds."""
    out = []
    for w, m in zip(walls, marks):
        ratios = [x / float(np.mean(speed[max(0, k - CALIB_SAMPLES):k + CALIB_SAMPLES]))
                  for x, k in zip(w, m)]
        out.append(REF_CALIB_S * float(np.median(ratios)))
    return out


def quality_summary(found: list[Inspection]) -> dict[str, float]:
    """Output-quality figures of the first pass (deterministic for a seed)."""
    out = {}
    for k in sorted({k for f in found for k in f.quality}):
        values = [f.quality[k] for f in found if k in f.quality]
        out[k] = min(values) if k.endswith("_min") else float(np.mean(values))
    return out


def _names(key: str) -> set[str]:
    return {f"{m}.{a}" for m, a, k in FUNCTIONS if k == key}


def per_layer(tracer: Tracer, passes: int, traced_walls: list[list[float]],
              walls: list[list[float]]) -> dict[str, float]:
    """Per-layer numbers per pass over the corpus; ``*.calls`` are calls
    per op that reached the layer at all. The overhead compares each call's
    fastest traced and fastest untraced repetition."""
    busy = tracer.self_times()

    def b(key: str) -> float:
        return busy.get(key, 0.0) / passes

    return {
        "graphs.gen.busy_s": b("graphs.gen"),
        "graphs.gen.calls": tracer.calls(_names("graphs.gen")),
        "graphs.er_accept_ratio": tracer.er_accept_ratio(),
        "graphs.parse.busy_s": b("graphs.parse"),
        "trees.busy_s": b("trees"),
        "trees.calls": tracer.calls(_names("trees")),
        "scheduling.schedule.busy_s": b("scheduling.schedule"),
        "scheduling.schedule.calls": tracer.calls(_names("scheduling.schedule")),
        "scheduling.verify.busy_s": b("scheduling.verify"),
        "scheduling.verify.calls": tracer.calls(_names("scheduling.verify")),
        "circuits.build.busy_s": b("circuits.build"),
        "circuits.gates": tracer.gates / passes,
        "circuits.metrics.busy_s": b("circuits.metrics"),
        "circuits.text.busy_s": b("circuits.text"),
        "simulate.noisy.busy_s": b("simulate.noisy"),
        "simulate.noisy.calls": tracer.calls(_names("simulate.noisy")),
        "simulate.dm_bytes": float(tracer.dm_bytes),
        "simulate.ideal.busy_s": b("simulate.ideal"),
        "simulate.ideal.calls": tracer.calls({"simulate.run_ideal"}),
        "simulate.cut.busy_s": b("simulate.cut"),
        "oracle.busy_s": b("oracle"),
        "oracle.calls": tracer.calls({"cli.solve_exact", "oracle.solve_exact"}),
        "oracle.trees_enumerated": tracer.trees_enumerated / passes,
        "bench.self_s": b("bench"),
        "bench.csv.busy_s": b("bench.csv"),
        "cli.self_s": b("cli"),
        "trace.harness_s": b("harness"),
        "trace.overhead_s": sum(min(t) - min(u) for t, u in zip(traced_walls, walls)),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "smoke"), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "canary"))
    try:
        return measure(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(wl, args, workdir: str) -> int:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)["digests"]
    rounds = wl.corpus(args.seed, args.scale, workdir)
    calls = [c for rnd in rounds for c in rnd]
    canary = [c for rnd in wl.corpus(DEFAULT_SEED, "smoke", os.path.join(workdir, "canary"))
              for c in rnd]
    canary_out = [run_call(wl, c, True) for c in canary]
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    runs: list[tuple[int, str | None]] = []   # (index in pass, output digest)
    walls: list[list[float]] = [[] for _ in calls]   # untraced seconds per call
    traced_walls: list[list[float]] = [[] for _ in calls]
    marks: list[list[int]] = [[] for _ in calls]     # calibrations before each
    speed: list[float] = []                   # calibration seconds, in order
    found: list[Inspection] = []              # first-pass inspections
    pass_s = {True: 0.0, False: 0.0}          # summed over traced / untraced passes
    traced_passes = 0
    start = time.perf_counter()
    pass_no = 0
    while True:
        traced = tracer is not None and pass_no % 2 == 0
        if traced:
            tracer.install(treeqaoa)
        pass_start = time.perf_counter()
        index = 0
        stop = False
        for r, rnd in enumerate(rounds):
            round_start = time.perf_counter()
            for call in rnd:
                span = tracer.begin_op(len(runs)) if traced else -1
                t0 = time.perf_counter_ns()
                out = run_call(wl, call, pass_no == 0)
                t1 = time.perf_counter_ns()
                if traced:
                    tracer.end_op(span)
                (traced_walls if traced else walls)[index].append((t1 - t0) / 1e9)
                if not traced:
                    marks[index].append(len(speed))
                speed += [calibrate() for _ in range(CALIB_SAMPLES)]
                pass_s[traced] += (t1 - t0) / 1e9
                runs.append((index, None if out is None else digest(out)))
                if pass_no == 0:
                    found.append(inspect(wl, call, out))
                index += 1
            # untraced: stop at the round boundary nearest to --seconds
            now = time.perf_counter()
            if (tracer is None and (pass_no > 0 or r == len(rounds) - 1)
                    and now - start + (now - round_start) / 2 >= args.seconds):
                stop = True
                break
        if traced:
            tracer.uninstall()
        traced_passes += traced
        # traced: stop after the untraced pass of the pair nearest to --seconds
        now = time.perf_counter()
        if tracer is not None and not traced:
            stop = now - start + (now - pass_start) >= args.seconds
        if stop:
            break
        pass_no += 1

    # ---- checks, outside the timed phase -------------------------------
    first = [d for _, d in runs[:len(calls)]]
    problems = check_pass(wl, calls, found, first,
                          recorded[args.scale].get(wl.name, {}).get(str(args.seed)),
                          f"seed {args.seed} reference")
    failures = [f"{calls[i].label}: {p}" for i, ps in enumerate(problems) for p in ps]
    failed = 0
    for i, d in runs:
        bad = problems[i] or d is None or d != first[i]
        failed += calls[i].ops if bad else 0
    repeats = sum(1 for i, d in runs[len(calls):] if d != first[i])
    if repeats:
        failures.append(f"{repeats} repeated calls did not reproduce their first-pass output")
    canary_digests = [None if o is None else digest(o) for o in canary_out]
    canary_problems = check_pass(wl, canary, [inspect(wl, c, o) for c, o in zip(canary, canary_out)],
                                 canary_digests,
                                 recorded["smoke"].get(wl.name, {}).get(str(DEFAULT_SEED)),
                                 "canary")
    for c, ps in zip(canary, canary_problems):
        failed += c.ops if ps else 0
        failures.extend(f"canary {c.label}: {p}" for p in ps)

    # Every run has at least one untraced pass, so every call has a
    # repetition. The raw figures (each call's fastest repetition, at the
    # machine's speed of the moment) are reported but not gated.
    norm = normalised(walls, marks, speed)
    samples = [1e3 * t / c.ops for c, t in zip(calls, norm)]
    q, tail_ms = tail(samples)
    best = [min(w) for w in walls]
    raw = [1e3 * b / c.ops for c, b in zip(calls, best)]
    ops = sum(calls[i].ops for i, _ in runs)
    result = {
        "workload": wl.name, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds, "machine": machine(),
        "attempted": ops + sum(c.ops for c in canary), "failed": failed,
        "failures": failures[:20],
        "ops": ops, "calls": len(runs), "passes": pass_no + 1,
        "ops_per_s": sum(c.ops for c in calls) / sum(norm),
        "op_p50_ms": float(np.percentile(samples, 50)),
        "op_tail_ms": tail_ms, "tail_percentile": q, "latency_samples": len(samples),
        "calib_median_ms": 1e3 * float(np.median(speed)),
        "calib_ref_ms": 1e3 * REF_CALIB_S,
        "raw": {"ops_per_s": sum(c.ops for c in calls) / sum(best),
                "op_p50_ms": float(np.percentile(raw, 50)),
                "op_tail_ms": tail(raw)[1]},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "call_walls_s": [[round(x, 6) for x in w] for w in walls],
        "call_marks": marks,
        "calib_s": [round(d, 7) for d in speed],
        "ops_per_s_all": sum(c.ops * len(w) for c, w in zip(calls, walls)) / pass_s[False],
        "quality": quality_summary(found),
        "first_pass_digests": first,
        "canary_digests": canary_digests,
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, traced_passes, traced_walls, walls)
        busy = tracer.self_times()
        result["trace_check"] = {
            "traced_op_wall_s": pass_s[True] / traced_passes,
            "self_time_sum_s": sum(busy.values()) / traced_passes,
            "unattributed_graphs_s": busy.get("graphs.other", 0.0) / traced_passes,
        }
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        tracer.write(os.path.join(HERE, "results",
                                  f"{wl.name}-seed{args.seed}-{args.scale}-spans.jsonl"))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
