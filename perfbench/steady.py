#!/usr/bin/env python3
"""Steadiness self-check for the Minuet wall-clock benchmark.

Usage (from the repository root):
    python3 perfbench/steady.py [--runs 10] [--sets 1] [--workloads a,b]
                                [--seed-base 1000] [--out FILE]

Runs every workload --runs times (each with its own seed, untraced) through
perfbench/run.py, then prints for every metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
with the seeds used. Each end-to-end metric of BENCHMARK.json is checked
against its bound: spread above the bound is FAIL, above a third of it is
WARN. With --sets 2 the whole procedure runs twice, and two medians that
differ, in either direction, by more than the bound (|b - a| / min(a, b))
are FAIL. Metrics printed only as text by the program (read_*,
scan_*, recover_s, fail_frac) are reported without a bound. Exits 1 on any
FAIL or on a run that reports correct=false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, {}
    result = json.loads(lines[-1])
    text = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            try:
                text[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    if proc.returncode != 0:
        result["correct"] = False
    return result, text


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_set(bench, workloads, runs, seed_base, out):
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    medians = {}
    ok = True
    for w in workloads:
        seeds = [seed_base + i for i in range(runs)]
        values, extra = {}, {}
        for seed in seeds:
            result, text = run_once(w, seed, bench["run_seconds"])
            if result is None or not result["correct"]:
                out(f"FAIL {w} seed {seed}: incorrect or no result")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, (v, unit) in text.items():
                if name not in e2e and (name.startswith(
                        ("read_", "scan_")) or name in ("recover_s",
                                                      "fail_frac")):
                    extra.setdefault(name, []).append((v, unit))
        out(f"\n### {w}  (seeds {seeds[0]}..{seeds[-1]})\n")
        out("| metric | median | q1 | q3 | spread | bound | verdict | "
            "runs in seed order |")
        out("|---|---|---|---|---|---|---|---|")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med, q1, q3, spread = stats(vals)
            bound = e2e[name]["bound"]
            verdict = "ok"
            if spread > bound:
                verdict, ok = "FAIL", False
            elif spread > bound / 3:
                verdict = "WARN"
            medians[(w, name)] = med
            listing = " ".join(f"{v:.4g}" for v in vals)
            out(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                f"{spread:.4f} | {bound} | {verdict} | {listing} |")
        for name, pairs in sorted(extra.items()):
            vals = [v for v, _ in pairs]
            if len(vals) < 2:
                continue
            med, q1, q3, spread = stats(vals)
            listing = " ".join(f"{v:.4g}" for v in vals)
            out(f"| {name} ({pairs[0][1]}) | {med:.6g} | {q1:.6g} | "
                f"{q3:.6g} | {spread:.4f} | - | info | {listing} |")
    return ok, medians


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    report = []

    def out(line):
        print(line, flush=True)
        report.append(line)

    ok = True
    sets = []
    for s in range(args.sets):
        out(f"\n## Set {s + 1}: {args.runs} runs x {bench['run_seconds']} s "
            "per workload")
        set_ok, medians = run_set(bench, workloads, args.runs,
                                  args.seed_base + 100 * s, out)
        ok = ok and set_ok
        sets.append(medians)
    if len(sets) == 2:
        out("\n## Second median vs first\n")
        out("| workload | metric | set 1 | set 2 | change | bound | verdict |")
        out("|---|---|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            for w in workloads:
                a, b = sets[0].get((w, m["name"])), sets[1].get((w, m["name"]))
                if a is None or b is None or min(a, b) <= 0:
                    continue
                change = abs(b - a) / min(a, b)
                worse = b > a if m["better"] == "lower" else b < a
                verdict = "FAIL" if change > m["bound"] else "ok"
                ok = ok and verdict == "ok"
                out(f"| {w} | {m['name']} | {a:.6g} | {b:.6g} | "
                    f"{change:.4f} {'worse' if worse else 'better'} | "
                    f"{m['bound']} | {verdict} |")
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n".join(report) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
