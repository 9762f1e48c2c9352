#!/usr/bin/env python3
"""Paper-workload benchmark for HolDCSim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench_runner (the HolDCSim
libraries plus the workload runner, Release) under .bench_build/, then
runs the workload in a fresh runner process per iteration:

  * one warm-up iteration at DEFAULT_SEED, whose stats digest must
    match the pinned one;
  * --trace 0: untraced iterations until --seconds have passed; prints
    the end-to-end metrics (medians over iterations);
  * --trace 1: (untraced, traced) pairs until --seconds have passed;
    the two digests of a pair must agree, and the traced iteration's
    layer self times must add up to its run phase; prints the
    per-layer metrics (medians over pairs).

Iteration i runs at root seed iteration_seed(--seed, i), so a run's
medians average over input variation as well as host noise. Every
iteration must drain (jobs completed == jobs injected). The line
before the result holds the run manifest and the raw samples; the last
line is the result: {"correct", "attempted", "failed", "metrics"}.
See README.md for the workloads, the metrics and the predictions.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")

WORKLOADS = ("farm_diurnal", "fleet_scale", "fabric_dag", "tau_sweep")

# FNV-1a 64 digest of the dumpStats text at DEFAULT_SEED (tau_sweep:
# the eight cells' dumps in grid order), pinned at the commit that
# added this benchmark. A change that alters any simulated statistic
# of these configurations fails the check.
DEFAULT_SEED = 1
PINNED_DIGESTS = {
    "farm_diurnal": "9db8cba22d70b91c",
    "fleet_scale": "1d14fdf839b57eae",
    "fabric_dag": "84c32005f4805b39",
    "tau_sweep": "482454543d6f5076",
}

MIN_ITERATIONS = 3
# Leave room inside the 180 s limit for the last iteration started.
LAST_START_S = 140.0
ITERATION_TIMEOUT_S = 120.0

VALIDATION_NOTE = (
    "model unvalidated against real hardware: the physical reference in "
    "src/dc/validation.hh is synthetic, so no accuracy figure is reported")

# Event names (KernelProbe, by Event::name()) per layer.
EVENT_LAYERS = {
    "pump.arrival": "sched.arrival",
    "core.completion": "server.completion",
    "core.demotion": "server.governor",
    "delayTimer.fire": "server.governor",
    "deepSleep.fire": "server.governor",
    "server.wakeDone": "server.governor",
    "dvfs.tick": "server.governor",
    "wheel.tick": "server.governor",
    "flow.activation": "network.flow",
    "flow.completion": "network.flow",
    "flow.abort": "network.flow",
    "port.lpi": "network.governor",
    "linecard.sleep": "network.governor",
    "switch.sleep": "network.governor",
}
# Decorated calls (runner spans "call:*") per layer.
CALL_LAYERS = {
    "call:nextArrival": "workload.arrival",
    "call:makeJob": "workload.gen",
    "call:pick": "sched.pick",
}
LAYERS = ("workload.arrival", "workload.gen", "sched.pick",
          "sched.arrival", "server.completion", "server.governor",
          "network.flow", "network.governor", "other")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the runner; False if either step fails."""
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", BUILD, "--target", "perfbench_runner",
              "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.exists(RUNNER)


def iteration_seed(seed, i):
    """Root seed of iteration i of a run at --seed @p seed. Each
    iteration simulates a fresh sample of the workload: on fabric_dag
    the solver work of one sample moves by ~12% from seed to seed, so
    repeating one seed would leave that variation in every run's
    median."""
    return (seed * 1000 + i) % 2**64


class Failure(Exception):
    pass


def run_iteration(workload, seed, traced):
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Failure(f"runner timed out: {' '.join(cmd)}")
    if p.returncode != 0:
        raise Failure(f"runner exited {p.returncode}: {p.stderr.strip()}")
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise Failure(f"runner printed no record: {p.stdout[-200:]!r}")


def check_record(r, expected_digest):
    """Return the list of failed checks of one runner record."""
    bad = []
    if not r["drained"]:
        bad.append("event queue not drained")
    if not (r["jobs_injected"] == r["jobs_submitted"] == r["jobs_completed"]
            and r["jobs_injected"] > 0):
        bad.append("jobs injected/submitted/completed = "
                   f"{r['jobs_injected']}/{r['jobs_submitted']}/"
                   f"{r['jobs_completed']}")
    if expected_digest is not None and r["digest"] != expected_digest:
        bad.append(f"stats digest {r['digest']} != {expected_digest}")
    return bad


def jobs_per_s(r):
    # Run phase (first event to drain) for single runs; the sweep's
    # cells overlap, so there the sweep wall is the denominator.
    return r["jobs_completed"] / (r["wall_s"] if r["cells"] > 1
                                  else r["run_s"])


def end_to_end(records):
    med = lambda f: statistics.median(f(r) for r in records)
    return {
        "wall_s": (med(lambda r: r["wall_s"]), "s"),
        "jobs_per_s": (med(jobs_per_s), "1/s"),
        "setup_s": (med(lambda r: r["setup_s"]), "s"),
        "peak_rss_mb": (med(lambda r: r["peak_rss_mb"]), "MB"),
    }


def layer_metrics(traced, plain):
    """Per-layer metrics of one (traced, untraced) pair, plus the
    attribution residual in ns (run phase minus loop self minus every
    reported layer's self time; exactly 0 when nothing is dropped or
    double counted)."""
    spans = traced["spans"]
    run = spans.get("phase:run", {})
    calls = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    incl_ns = dict.fromkeys(LAYERS, 0)
    unmapped = []
    for name, (n, s, i) in run.items():
        if name == "phase:run":
            continue
        layer = EVENT_LAYERS.get(name) or CALL_LAYERS.get(name)
        if layer is None:
            layer = "other"
            unmapped.append(name)
        calls[layer] += n
        self_ns[layer] += s
        incl_ns[layer] += i
    _, loop_self, run_incl = run.get("phase:run", (0, 0, 0))
    residual_ns = run_incl - loop_self - sum(self_ns.values())

    def phase_incl(name):
        return spans.get(name, {}).get(name, (0, 0, 0))[2] * 1e-9

    threads_wall = plain["threads"] * plain["wall_s"]
    pick_calls = calls["sched.pick"]
    solver_resolves = traced["solver_resolves"]
    m = {
        "sim.events": (traced["events"], "count"),
        "sim.events_per_s": (plain["events"] / plain["run_s"], "1/s"),
        "sim.run_s": (run_incl * 1e-9, "s"),
        "sim.loop.self_s": (loop_self * 1e-9, "s"),
        "sim.queue.peak_depth": (traced["probe_peak_depth"], "count"),
        "sim.queue.heap_spills": (traced["queue_heap_schedules"], "count"),
        "sim.queue.rebases": (traced["queue_rebases"], "count"),
        "sim.queue.migrated_entries":
            (traced["queue_migrated_entries"], "count"),
        "workload.trace.self_s": (phase_incl("phase:trace"), "s"),
        "sched.pick.mean_candidates":
            (traced["pick_candidates"] / pick_calls if pick_calls else 0.0,
             "count"),
        "sched.arrival.self_us_per_call":
            (self_ns["sched.arrival"] * 1e-3 / calls["sched.arrival"]
             if calls["sched.arrival"] else 0.0, "us"),
        "network.solver.resolves": (solver_resolves, "count"),
        "network.solver.resolved_flows":
            (traced["solver_resolved_flows"], "count"),
        "network.solver.flows_per_resolve":
            (traced["solver_resolved_flows"] / solver_resolves
             if solver_resolves else 0.0, "count"),
        "network.solver.fast_path_hits":
            (traced["solver_fast_path_hits"], "count"),
        "dc.build_s": (phase_incl("phase:build"), "s"),
        "dc.stats_s": (phase_incl("phase:stats"), "s"),
        "exp.cell_s": (plain["cell_sum_s"] / plain["cells"], "s"),
        "exp.busy_frac": (plain["cell_sum_s"] / threads_wall, "ratio"),
        "exp.idle_s": (threads_wall - plain["cell_sum_s"], "s"),
        "other.names": (len(unmapped), "count"),
        "bench.trace_overhead":
            (traced["run_s"] / plain["run_s"] - 1.0, "ratio"),
    }
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_s"] = (self_ns[layer] * 1e-9, "s")
    for layer in ("sched.arrival", "server.completion", "network.flow"):
        m[f"{layer}.incl_s"] = (incl_ns[layer] * 1e-9, "s")
    return m, residual_ns, unmapped


def source_digest():
    """SHA-256 over src/ (paths and contents): identifies the code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for f in sorted(files):
            path = os.path.join(base, f)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit():
    # Only the checkout's own repository: git would otherwise climb to
    # an enclosing one and report its commit.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def manifest(record, seed):
    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "host_cpus": os.cpu_count(),
        "host_machine": platform.machine(),
        "compiler": record["compiler"],
        "build_type": record["build_type"],
        "cxx_flags": record["cxx_flags"].strip(),
        "seed": seed,
        "workload_config_sha256":
            hashlib.sha256(record["config"].encode()).hexdigest()[:16],
        "validation": VALIDATION_NOTE,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not build():
        return 1
    start = time.monotonic()
    attempted = 0
    failed = 0
    problems = []
    digests = {DEFAULT_SEED: PINNED_DIGESTS[args.workload]}

    def checked(seed, traced):
        nonlocal attempted, failed
        attempted += 1
        try:
            r = run_iteration(args.workload, seed, traced)
        except Failure as e:
            failed += 1
            problems.append(str(e))
            return None
        digests.setdefault(seed, r["digest"])
        bad = check_record(r, digests[seed])
        if bad:
            failed += 1
            problems.extend(f"seed {seed}{' traced' if traced else ''}: {b}"
                            for b in bad)
        return r

    warm = checked(DEFAULT_SEED, False)
    samples = []
    t0 = time.monotonic()
    for i in itertools.count():
        seed = iteration_seed(args.seed, i)
        if args.trace:
            plain = checked(seed, False)
            traced = checked(seed, True)
            if plain and traced:
                m, residual_ns, unmapped = layer_metrics(traced, plain)
                if residual_ns != 0:
                    failed += 1
                    problems.append(
                        f"layer self times miss the run phase by "
                        f"{residual_ns} ns")
                samples.append((m, unmapped))
        else:
            r = checked(seed, False)
            if r:
                samples.append(r)
        elapsed = time.monotonic() - t0
        if not samples and attempted >= 2 * MIN_ITERATIONS:
            break
        if (len(samples) >= MIN_ITERATIONS and elapsed >= args.seconds) \
                or time.monotonic() - start > LAST_START_S:
            break

    correct = failed == 0 and bool(samples) and warm is not None
    metrics = {}
    info = {"workload": args.workload, "problems": problems}
    if samples and args.trace:
        names = samples[0][0].keys()
        metrics = {k: {"value": statistics.median(s[0][k][0]
                                                  for s in samples),
                       "unit": samples[0][0][k][1]} for k in names}
        info["other_names"] = sorted({n for s in samples for n in s[1]})
    elif samples:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in end_to_end(samples).items()}
        info["samples"] = {
            k: [round(v, 6) for v in vals] for k, vals in (
                ("wall_s", [r["wall_s"] for r in samples]),
                ("jobs_per_s", [jobs_per_s(r) for r in samples]),
                ("setup_s", [r["setup_s"] for r in samples]))}
    if warm:
        info["manifest"] = manifest(warm, args.seed)
    for p in problems:
        log("perfbench: FAILED " + p)
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
