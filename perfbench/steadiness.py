#!/usr/bin/env python3
"""Run the benchmark over seeds and write the whole steadiness record.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--traced-runs 3]
        [--out perfbench/STEADINESS.md]

It runs the command in BENCHMARK.json one run at a time: two sets of
end-to-end runs (every workload on seeds 1..runs, then all of it again),
then one set of per-layer runs (seeds 1..traced-runs). For each workload
and metric it reports the median, the quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median of each
set, how much worse the second median is than the first, and the
metric's bound. Every run must print correct=true with zero failed ops,
and each exact metric must repeat for a seed in both sets; the script
writes the record and then exits 1 if not.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import time

# Metrics that are simulated, not timed: they must repeat for a seed.
EXACT = ("sim_ipc", "pythia_speedup", "pythia_coverage", "pythia_overprediction")

DROPPED = """\
## Dropped metrics

- `op_p50_ms` was dropped from the end-to-end set. When it was measured
  it spread 0.37 on `sim_pythia` (median 21.1 ms, q1 20.5, q3 28.4),
  0.38 on `replay_none`, 0.26 on `campaign_ladder` and 0.02 on
  `serve_rw`. The median op falls in whichever host mode holds the
  majority of a run, so it jumps between modes; no bound of at most
  0.25 holds it.
- `read_p50_ms` and `read_p90_ms` are kept as the per-layer
  `serve.read_p50_ms` and `serve.read_p90_ms`: every end-to-end metric
  must be printed, non-zero, by every workload, and only `serve_rw` has
  reads.
- No workload was dropped.
"""


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    host = next((l for l in proc.stderr.splitlines() if l.startswith("host:")), "")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), wall, host


class Set:
    """One pass of runs over every workload: values by workload and metric."""

    def __init__(self, name):
        self.name = name
        self.values = {}
        self.walls = {}
        self.attempted = {}
        self.failed = {}

    def add(self, workload, result, wall):
        self.walls.setdefault(workload, []).append(wall)
        self.attempted[workload] = self.attempted.get(workload, 0) + result["attempted"]
        self.failed[workload] = self.failed.get(workload, 0) + result["failed"]
        for name, m in result["metrics"].items():
            self.values.setdefault(workload, {}).setdefault(name, []).append(m["value"])

    def summary(self, workload):
        walls = self.walls[workload]
        return (f"{self.name}: {self.attempted[workload]} ops attempted, "
                f"{self.failed[workload]} failed; run wall time "
                f"{min(walls):.1f}-{max(walls):.1f} s.")


def quartiles(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_set(bench, name, workloads, seeds, trace):
    s = Set(name)
    ok = True
    host = ""
    for workload in workloads:
        for seed in seeds:
            result, wall, host = run_once(
                bench["command"], workload, seed, bench["run_seconds"], trace)
            s.add(workload, result, wall)
            ok &= bool(result["correct"]) and result["failed"] == 0
            print(f"{name}: {workload} seed {seed}: {wall:.1f} s, "
                  f"failed {result['failed']}", flush=True)
    return s, ok, host


def end_to_end_section(bench, workloads, first, second):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    lines = ["## End-to-end runs", ""]
    findings = []
    for workload in workloads:
        lines += [
            f"### {workload}", "",
            first.summary(workload), second.summary(workload), "",
            "| metric | bound | median 1 | q1 | q3 | spread 1 "
            "| median 2 | q1 | q3 | spread 2 | 2 worse than 1 by |",
            "|---|---|---|---|---|---|---|---|---|---|---|",
        ]
        for name in first.values[workload]:
            a, b = first.values[workload][name], second.values[workload][name]
            m1, p1, r1, s1 = quartiles(a)
            m2, p2, r2, s2 = quartiles(b)
            sign = 1 if better[name] == "lower" else -1
            worse = sign * (m2 - m1) / m1
            bound = bounds[name]
            lines.append(
                f"| {name} | {bound} | {m1:.6g} | {p1:.6g} | {r1:.6g} | {s1:.4f} "
                f"| {m2:.6g} | {p2:.6g} | {r2:.6g} | {s2:.4f} | {worse:+.4f} |")
            if name in EXACT and a != b:
                findings.append(f"`{workload}` `{name}` differs between the sets for some seed")
            if worse > bound:
                findings.append(f"`{workload}` `{name}`: second median worse by "
                                f"{worse:.3f}, bound {bound}")
            for label, spread in (("1", s1), ("2", s2)):
                if spread > bound:
                    findings.append(f"`{workload}` `{name}`: spread {spread:.3f} in set "
                                    f"{label}, above its bound {bound}")
                elif spread > bound / 3:
                    findings.append(f"`{workload}` `{name}`: spread {spread:.3f} in set "
                                    f"{label}, above a third of its bound {bound}")
        lines.append("")
    lines += ["### Findings", ""]
    lines += [f"- {f}" for f in findings] or ["- None: every spread is below a third "
                                              "of its bound and no median moved by more."]
    lines.append("")
    return lines


def per_layer_section(workloads, traced):
    lines = ["## Per-layer (traced) runs", ""]
    for workload in workloads:
        lines += [
            f"### {workload}", "", traced.summary(workload), "",
            "| metric | median | q1 | q3 | spread |",
            "|---|---|---|---|---|",
        ]
        for name, vals in traced.values[workload].items():
            if not any(vals):
                continue  # reads 0 in every run: a layer this workload does not reach
            med, q1, q3, spread = quartiles(vals)
            lines.append(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} |")
        lines.append("")
    return lines


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced-runs", type=int, default=3)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(1, args.runs + 1)
    started = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())

    first, ok1, host = run_set(bench, "set 1", workloads, seeds, False)
    second, ok2, _ = run_set(bench, "set 2", workloads, seeds, False)
    traced, ok3 = None, True
    if args.traced_runs:
        traced, ok3, _ = run_set(bench, "traced", workloads,
                                 range(1, args.traced_runs + 1), True)
    ok = ok1 and ok2 and ok3

    lines = [
        "# Steadiness record",
        "",
        "Written by `python3 perfbench/steadiness.py "
        f"--runs {args.runs} --traced-runs {args.traced_runs}`, started {started}: "
        "two sets of end-to-end runs of the same code, every workload on "
        f"seeds 1..{args.runs} in each, then one set of per-layer runs on seeds "
        f"1..{args.traced_runs}; one run at a time, {bench['run_seconds']} s each.",
        "Spread is (q3 - q1) / median over a set's runs, with "
        "`statistics.quantiles(values, n=4)`. Each run uses another seed, so "
        "the spread of an exact metric is its spread across seeds; the same "
        "seed must give the same exact value in both sets. \"2 worse than 1 "
        "by\" is the second median's change in the metric's worse direction, "
        "as a share of the first.",
        "",
        f"Host: {os.cpu_count()} CPUs, {cpu_model()}, "
        f"{platform.system()} {platform.release()}.",
        f"Benchmark host line (CPU features from the `pythia-obs` capture): `{host}`.",
        f"Every run correct with 0 failed ops: {'yes' if ok else 'NO'}.",
        "",
    ]
    lines += end_to_end_section(bench, workloads, first, second)
    lines += DROPPED.splitlines() + [""]
    if traced:
        lines += per_layer_section(workloads, traced)
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    print(text)
    if not ok:
        raise SystemExit("some run was not correct")


if __name__ == "__main__":
    main()
