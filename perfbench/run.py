#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench/` (the `sgm-perfbench`
binary) into `$CARGO_TARGET_DIR` (default `.bench_build`), then:

* `--trace 0` repeats untraced training runs of the workload on the seed
  until `--seconds` have passed (at least two runs) and reports the
  median of each end-to-end metric;
* `--trace 1` makes one traced run (decorators, stage hook,
  `SGM_TRACE=full`) for the per-layer metrics, plus one untraced run at
  the full thread count and one at a single thread, which give the
  tracing overhead and the thread speed-up.

Each training run is its own process with the `sgm-par` pool pinned to
the number of usable CPUs. Every run is checked (finite values, no
rebuild-worker deaths, target reached, error under the ceiling, bit
identity where the workload is deterministic); a run that fails a check
counts in `failed`. The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 870
# Whole-invocation deadline: the result must be out within 180 s.
DEADLINE_S = 170
MIN_REPS = 2
WORKLOADS = ("ldc-ularge", "ldc-sgm", "ar-sgms")

END_TO_END = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("time_to_target_s", "s"),
    ("final_error", "rel_l2"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# Per-layer metric -> (unit, key in the traced run's output).
PER_LAYER = [
    ("setup.problem_s", "s", "setup.problem_s"),
    ("setup.sampler_s", "s", "setup.sampler_s"),
    ("train.refresh_s", "s", "stage.refresh_s"),
    ("train.draw_s", "s", "stage.draw_s"),
    ("train.gather_s", "s", "stage.gather_s"),
    ("train.loss_grad_s", "s", "stage.loss_grad_s"),
    ("train.step_s", "s", "stage.step_s"),
    ("train.record_s", "s", "stage.record_s"),
    ("train.iter_ms", "ms", "iter_ms"),
    ("train.iters_to_target", "count", "iters_to_target"),
    ("core.score_refreshes", "count", "score_refreshes"),
    ("core.score_refresh_ms_p50", "ms", "score_refresh_ms_p50"),
    ("core.probe_evals", "count", "probe_evals"),
    ("core.rebuild_wall_s", "s", "rebuild_wall_s"),
    ("core.rebuild_cpu_s", "s", "rebuild_cpu_s"),
    ("core.stale_epochs", "count", "stale_epochs"),
    ("core.rebuilds_late", "count", "rebuilds_late"),
    ("graph.knn_s", "s", "graph.knn_s"),
    ("graph.er_s", "s", "graph.er_s"),
    ("graph.lrd_s", "s", "graph.lrd_s"),
    ("stability.isr_s", "s", "stability.isr_s"),
    ("physics.probe_rows", "count", "probe_rows"),
    ("physics.probe_s", "s", "probe_s"),
    ("physics.loss_grad_rows_per_s", "rows/s", "loss_grad_rows_per_s"),
    ("physics.validate_s", "s", "validate_s"),
]

# Per-layer metrics derived from the untraced runs of a traced invocation.
DERIVED = [("par.cpu_util", "fraction"), ("par.speedup_2t", "x"), ("obs.trace_overhead_pct", "%")]

# The traced run's stage totals must account for its training clock
# within this share.
ATTRIBUTION_TOLERANCE = 0.01


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return None
    if proc.returncode != 0:
        log("perfbench: build failed")
        return None
    exe = os.path.join(target_dir(), "release", "sgm-perfbench")
    return exe if os.path.isfile(exe) else None


def child_env(threads):
    # Strip inherited SGM_* knobs (tracing, telemetry sinks, thread
    # counts) so every run sees the same program configuration.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SGM_")}
    env["SGM_NUM_THREADS"] = str(threads)
    return env


class Runner:
    def __init__(self, exe, workload, seed, threads):
        self.exe, self.workload, self.seed, self.threads = exe, workload, seed, threads
        self.start = time.monotonic()
        self.attempted = 0
        self.failed_runs = set()

    def elapsed(self):
        return time.monotonic() - self.start

    def fail(self, run, why):
        """Marks training run number `run` (1-based) as failed."""
        self.failed_runs.add(run)
        log(f"perfbench: FAIL run {run}: {why}")

    def run(self, traced=False, threads=None):
        """One training run; returns its result dict, or None on failure."""
        threads = threads or self.threads
        cmd = [self.exe, "--workload", self.workload, "--seed", str(self.seed)]
        if traced:
            cmd.append("--traced")
        self.attempted += 1
        n = self.attempted
        label = f"{'traced' if traced else 'plain'}, {threads} threads"
        budget = DEADLINE_S - self.elapsed()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=child_env(threads), capture_output=True, text=True,
                timeout=max(budget, 1),
            )
        except subprocess.TimeoutExpired:
            self.fail(n, f"{label}: timed out")
            return None
        if proc.returncode != 0:
            self.fail(n, f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None
        try:
            rep = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.fail(n, f"{label}: no result line")
            return None
        why = check(rep)
        if why:
            self.fail(n, f"{label}: {why}")
            return None
        rep["run"] = n
        return rep


def check(rep):
    """Correctness checks every run must pass; returns the failure or None."""
    if rep.get("all_finite") != 1:
        return "non-finite loss or validation error"
    if rep.get("worker_deaths") != 0:
        return f"{rep.get('worker_deaths')} rebuild worker deaths"
    if rep.get("final_error") is None or rep["final_error"] > rep["ceiling"]:
        return f"final_error {rep.get('final_error')} above ceiling {rep['ceiling']}"
    if rep.get("time_to_target_s") is None:
        return f"target {rep['target']} not reached in {rep['iterations']:.0f} iterations"
    return None


def same_numerics(a, b):
    return all(a[k] == b[k] for k in ("final_error_bits", "iters_to_target", "params_hash"))


def metric(value, unit, n):
    """A result entry and its sample count."""
    return {"value": value, "unit": unit}, n


def trace0(r, seconds):
    """Untraced runs until `seconds` have passed (at least MIN_REPS
    attempts); returns the passing runs and the end-to-end medians."""
    reps, durations = [], []
    while r.attempted < MIN_REPS or r.elapsed() + statistics.mean(durations) <= seconds:
        if r.elapsed() + 1.5 * max(durations, default=0) > DEADLINE_S:
            break
        t0 = time.monotonic()
        rep = r.run()
        durations.append(time.monotonic() - t0)
        if rep is None:
            continue
        first = reps[0] if reps else None
        if first and first["deterministic"] == 1 and not same_numerics(first, rep):
            r.fail(
                rep["run"],
                f"not bit-identical to run {first['run']} "
                f"(final_error {rep['final_error_bits']} vs {first['final_error_bits']}, "
                f"iters_to_target {rep['iters_to_target']} vs {first['iters_to_target']})",
            )
            continue
        reps.append(rep)
    metrics, counts = {}, {}
    if reps:
        for name, unit in END_TO_END:
            metrics[name], counts[name] = metric(
                statistics.median(rep[name] for rep in reps), unit, len(reps)
            )
    return reps, metrics, counts


def trace1(r):
    traced = r.run(traced=True)
    plain = r.run()
    serial = r.run(threads=1)
    metrics, counts = {}, {}
    if traced is None:
        return None, metrics, counts
    stage_sum = traced["stage.train_total_s"]
    if abs(stage_sum - traced["train_s"]) > ATTRIBUTION_TOLERANCE * traced["train_s"]:
        r.fail(
            traced["run"],
            f"stage totals {stage_sum:.4f}s do not account for train_s {traced['train_s']:.4f}s",
        )
    for other in (plain, serial):
        if other is not None and traced["deterministic"] == 1 and not same_numerics(traced, other):
            r.fail(other["run"], f"not bit-identical to the traced run {traced['run']}")
    for name, unit, key in PER_LAYER:
        metrics[name], counts[name] = metric(traced[key], unit, 1)
    if plain is not None:
        util = plain["cpu_util"] / plain["threads"]
        metrics["par.cpu_util"], counts["par.cpu_util"] = metric(util, "fraction", 1)
        pct = 100.0 * (traced["train_s"] / plain["train_s"] - 1.0)
        metrics["obs.trace_overhead_pct"], counts["obs.trace_overhead_pct"] = metric(pct, "%", 1)
    if plain is not None and serial is not None:
        sp = serial["train_s"] / plain["train_s"]
        metrics["par.speedup_2t"], counts["par.speedup_2t"] = metric(sp, "x", 1)
    return traced, metrics, counts


def save_summary(workload, seed, metrics):
    """Keeps the run's end-to-end medians so the Table 1 line can pair
    the two LDC workloads of one seed."""
    out = os.path.join(target_dir(), "perfbench-results")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{workload}-seed{seed}.json"), "w") as f:
        json.dump({k: v["value"] for k, v in metrics.items()}, f)


def table1_line(seed):
    out = os.path.join(target_dir(), "perfbench-results")
    try:
        with open(os.path.join(out, f"ldc-ularge-seed{seed}.json")) as f:
            base = json.load(f)
        with open(os.path.join(out, f"ldc-sgm-seed{seed}.json")) as f:
            sgm = json.load(f)
    except (OSError, ValueError):
        return None
    ratio = base["time_to_target_s"] / sgm["time_to_target_s"]
    return (
        f"# table1 (informational, not gated): time_to_target_s ldc-ularge / ldc-sgm = "
        f"{base['time_to_target_s']:.3f}s / {sgm['time_to_target_s']:.3f}s = {ratio:.2f}x "
        f"(paper: 3.43x)"
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    threads = len(os.sched_getaffinity(0))
    r = Runner(exe, args.workload, args.seed, threads)
    if args.trace == 0:
        reps, metrics, counts = trace0(r, args.seconds)
        first = reps[0] if reps else None
    else:
        first, metrics, counts = trace1(r)

    if first is not None:
        print(
            f"# workload={args.workload} seed={args.seed} trace={args.trace} "
            f"simd_tier={first['simd_tier']} threads={first['threads']:.0f} "
            f"target={first['target']} ceiling={first['ceiling']} iterations={first['iterations']:.0f}"
        )
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:>16.6f} {m['unit']:8} n={counts[name]}")
    if args.trace == 1 and first is not None:
        iters = first["iters_to_target"]
        print(
            f"# time_to_target_s = train.iters_to_target x mean iteration cost to the target = "
            f"{iters:.0f} x {1e3 * first['time_to_target_s'] / iters:.4f}ms = "
            f"{first['time_to_target_s']:.4f}s"
        )
        print(
            f"# attribution: stage totals minus record = {first['stage.train_total_s']:.4f}s, "
            f"train_s = {first['train_s']:.4f}s"
        )
    if args.trace == 0 and metrics:
        save_summary(args.workload, args.seed, metrics)
        line = table1_line(args.seed)
        if line:
            print(line)

    failed = len(r.failed_runs)
    expected = END_TO_END if args.trace == 0 else PER_LAYER + DERIVED
    complete = all(name in metrics for name, *_ in expected)
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": r.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
