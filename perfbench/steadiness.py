#!/usr/bin/env python3
"""Steadiness and determinism check for the benchmark, and baseline recorder.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--out runs.json]
                                    [--compare earlier_runs.json] [--baseline]

Runs `perfbench/run.py --trace 0` once per (workload, seed), then for every end-to-end
metric prints the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json. Spreads of
setup_s are reported but not held to the bound. With --compare it also checks a second
set of runs against an earlier one: each shared (workload, seed) must give the same
virtual fingerprint, and no median may be worse than the earlier one by more than its
bound. --baseline writes the medians to perfbench/baseline.json. Exit code 1 when a
check fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["fingerprint"] = next(
        (line.split()[1] for line in lines if line.startswith("fingerprint ")), None)
    result["env"] = next((line[5:] for line in lines if line.startswith("env: ")), None)
    result["wall_s"] = time.monotonic() - start
    return result


def worse_by(metric, old, new):
    """How much worse `new` is than `old`, as a share of `old` (negative = better)."""
    if old == 0:
        return 0.0
    change = (new - old) / old
    return -change if metric["better"] == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    parser.add_argument("--compare")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    runs = {w: {} for w in workloads}
    for w in workloads:
        for seed in seeds:
            r = run_once(w, seed, spec["run_seconds"])
            runs[w][str(seed)] = r
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
            print(f"{w} seed {seed} ({r['wall_s']:.0f}s) {values}", flush=True)

    ok = True
    earlier = json.loads(Path(args.compare).read_text())["runs"] if args.compare else {}
    summary = {}
    for w in workloads:
        summary[w] = {}
        print(f"\n{w}: {len(seeds)} seeds")
        for m in spec["end_to_end"]:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r in runs[w].values()]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "unit": m["unit"]}
            verdict = "ok"
            if name != "setup_s" and spread > m["bound"]:
                verdict, ok = "OVER BOUND", False
            elif name != "setup_s" and spread > m["bound"] / 3:
                verdict = "over bound/3"
            line = (f"  {name:<20} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                    f"spread {spread:.4f} (bound {m['bound']}) {verdict}")
            if w in earlier:
                shared = [s for s in runs[w] if s in earlier[w]]
                if shared:
                    old = statistics.median(earlier[w][s]["metrics"][name]["value"]
                                            for s in shared)
                    new = statistics.median(runs[w][s]["metrics"][name]["value"]
                                            for s in shared)
                    delta = worse_by(m, old, new)
                    line += f"; vs earlier set {delta:+.4f}"
                    if delta > m["bound"]:
                        line += " WORSE THAN BOUND"
                        ok = False
            print(line)
        for seed, r in runs[w].items():
            old = earlier.get(w, {}).get(seed)
            if old is not None and old["fingerprint"] != r["fingerprint"]:
                print(f"  seed {seed}: virtual fingerprint changed "
                      f"{old['fingerprint']} -> {r['fingerprint']}")
                ok = False

    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    if args.baseline:
        first = next(iter(runs[workloads[0]].values()))
        (HERE / "baseline.json").write_text(json.dumps(
            {"seeds": args.seeds, "run_seconds": spec["run_seconds"], "env": first["env"],
             "medians": {w: {k: {"value": v["median"], "unit": v["unit"]}
                             for k, v in s.items()} for w, s in summary.items()},
             "fingerprints": {w: {s: r["fingerprint"] for s, r in runs[w].items()}
                              for w in workloads}}, indent=1) + "\n")
    print("\nsteadiness: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
