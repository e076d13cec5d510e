#!/usr/bin/env python3
"""Repo-wide benchmark: builds the episode runner from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The episode runner (perfbench_episode, built from
this directory's CMakeLists.txt into $CARGO_TARGET_DIR or .bench_build) runs one episode
per process: set-up, a fixed, seeded run phase, and correctness checks. This script
repeats episodes of the same seed for about --seconds (at least two), reports host
metrics as the median over episodes, and requires every virtual value (latencies in
simulated time, bytes, event counts) to repeat exactly across episodes.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json. --trace 1 alternates
untraced and traced (TOTORO_PROFILE=1) episodes and prints the per-layer metrics, with
obs.trace_overhead_ratio taken from the pair; the traced episodes' spans are written to
<build dir>/perfbench_traces/. Every TOTORO_* variable is cleared, so the program runs
with its defaults. The last line of stdout is one JSON object; exit code 0 means every
check held, 1 means a check failed, 2 means the benchmark could not run.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("overlay_lookup", "fl_concurrent_apps", "forest_churn")
EPISODE_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def clean_env(traced):
    env = {k: v for k, v in os.environ.items() if not k.startswith("TOTORO_")}
    if traced:
        env["TOTORO_PROFILE"] = "1"
    return env


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the episode runner in Release; logs go to stderr."""
    out = build_dir()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    env = clean_env(traced=False)
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            fail("configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "perfbench_episode",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
        fail("build failed")
    return out / "perfbench_episode"


def run_episode(runner, workload, seed, traced):
    cmd = [str(runner), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=clean_env(traced),
                              timeout=EPISODE_TIMEOUT_S, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        fail(f"{workload} episode timed out after {EPISODE_TIMEOUT_S}s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"episode runner exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("episode runner printed no result")


def fingerprint(episode):
    """Hash of every virtual value: equal seeds must give equal fingerprints."""
    virtual = {"attempted": episode["attempted"], "failed": episode["failed"],
               **episode["virtual"], **episode["virtual_layer"]}
    return hashlib.sha256(json.dumps(virtual, sort_keys=True).encode()).hexdigest()[:16]


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # SIGTERM unwinds like an error, so subprocess.run kills and reaps the episode.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    runner = build()

    # At least two episodes of one seed, so set-up is timed more than once and a traced
    # run has one untraced and one traced episode; then more while the next one is
    # expected to end mostly inside the time budget.
    episodes = []
    start = time.monotonic()
    last = 0.0
    while len(episodes) < 2 or time.monotonic() - start + last / 2 < args.seconds:
        traced = bool(args.trace) and len(episodes) % 2 == 1
        began = time.monotonic()
        episodes.append(run_episode(runner, args.workload, args.seed, traced))
        last = time.monotonic() - began

    untraced = [e for e in episodes if not e["traced"]]
    traced_eps = [e for e in episodes if e["traced"]]
    correct = all(e["correct"] for e in episodes)
    for e in episodes:
        for why in e["failures"]:
            print(f"CHECK FAILED ({'traced' if e['traced'] else 'untraced'} episode): {why}")
    prints = {fingerprint(e) for e in episodes}
    if len(prints) != 1:
        correct = False
        print("CHECK FAILED: virtual values differ between episodes of one seed")

    first = episodes[0]
    env = first["env"]
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced + "
          f"{len(traced_eps)} traced episodes in {time.monotonic() - start:.1f}s")
    print("env: " + ", ".join(f"{k}={v}" for k, v in sorted(env.items())))
    print(f"fingerprint {fingerprint(first)}")
    virt = first["virtual"]
    print(f"ops attempted {first['attempted']} failed {first['failed']} per episode; "
          f"ops_failed_ratio {virt['ops_failed_ratio']:.6g} ratio; op latency tail is "
          f"p{virt['op_latency_tail_pct']:.0f} of {virt['ops_completed']:.0f} samples "
          f"({virt['op_latency_tail_beyond']:.0f} beyond)")
    if "tta_virtual_s" in virt:
        print(f"tta_virtual_s {virt['tta_virtual_s']:.6g} s (virtual)")

    def host_value(key, eps):
        return median([e["host"][key] for e in eps])

    metrics = {}
    if args.trace == 0:
        for m in spec["end_to_end"]:
            name = m["name"]
            if name in first["host"]:
                value, cls = host_value(name, untraced), "host"
            elif name in virt:
                value, cls = virt[name], "virtual"
            else:
                fail(f"the episode runner does not measure {name}")
            metrics[name] = {"value": value, "unit": m["unit"]}
            print(f"  {name:<24} {value:>16.6g} {m['unit']:<8} {cls:<7} {m['better']} is better")
    else:
        run_u = host_value("run_s", untraced)
        run_t = host_value("run_s", traced_eps)
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "obs.trace_overhead_ratio":
                value, cls = (run_t / run_u if run_u > 0 else 0.0), "host"
            elif name in first["virtual_layer"]:
                value, cls = first["virtual_layer"][name], "virtual"
            elif name in traced_eps[0]["host_layer"]:
                value = median([e["host_layer"][name] for e in traced_eps])
                cls = "host"
            else:  # The workload does not drive this layer.
                value, cls = 0.0, "n/a"
            metrics[name] = {"value": value, "unit": m["unit"]}
            print(f"  {name:<34} {value:>16.6g} {m['unit']:<8} {cls}")
        trace_dir = build_dir().parent / "perfbench_traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            [{"host": e["host"], "host_layer": e["host_layer"], "spans": e["spans"]}
             for e in traced_eps], indent=1))

    attempted = sum(e["attempted"] for e in episodes)
    failed = sum(e["failed"] for e in episodes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
