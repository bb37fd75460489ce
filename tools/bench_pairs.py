"""Run alternating A/B pairs of the benchmark on two checkouts.

Usage (from anywhere):

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_n.json \
        [--first-seed 1] [--what TEXT]

For each of ten seeds in turn, and each workload, it runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` once
in each checkout, one after the other: the parent first when the seed is odd,
the change first when it is even. Each checkout runs its own benchmark, so
give two clean copies of the committed files. Workloads, metrics and the run
length ``T`` (``run_seconds``) come from the change's ``BENCHMARK.json``.

The output keeps every run under ``runs`` and, per workload, a ``summary``
with the inclusive quartiles of each end-to-end metric on both sides
(``parent_q1_median_q3``, ``change_q1_median_q3``), the number of pairs in
which the change was strictly better (``change_wins``) and the failed check
counts. It is rewritten after every pair, so a stopped session keeps the
pairs that finished. Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

PAIRS = 10  # pairs per workload, one seed each


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}


def quartiles(values: list) -> list:
    if len(values) == 1:
        return [round(values[0], 4)] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


def summarize(runs: list, workloads: list, metrics: list) -> dict:
    summary = {}
    for w in workloads:
        by_seed = {}
        for r in runs:
            if r["workload"] == w:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [p for p in by_seed.values() if len(p) == 2]
        if not pairs:
            continue
        out = {"pairs": len(pairs)}
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            vals = [(p["parent"]["metrics"].get(name, {}).get("value"),
                     p["change"]["metrics"].get(name, {}).get("value"))
                    for p in pairs]
            vals = [v for v in vals if None not in v]
            if not vals:
                continue
            out[name] = {
                "parent_q1_median_q3": quartiles([a for a, _ in vals]),
                "change_q1_median_q3": quartiles([b for _, b in vals]),
                "change_wins": sum((b > a) if higher else (b < a)
                                   for a, b in vals),
            }
        out["failed"] = {side: sum(p[side]["failed"] for p in pairs)
                         for side in ("parent", "change")}
        summary[w] = out
    return summary


def commit_of(checkout: str) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine() -> str:
    cpu = platform.processor() or "unknown cpu"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"{platform.machine()}, {os.cpu_count()} cores, "
            f"{platform.python_version()}, {cpu}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--what", default="", help="what the change is")
    ns = ap.parse_args(argv)
    with open(os.path.join(ns.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = range(ns.first_seed, ns.first_seed + PAIRS)
    doc = {
        "what": ns.what,
        "parent_commit": commit_of(ns.parent),
        "command": ("python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {seconds:g} --trace 0"),
        "protocol": (f"seeds {seeds[0]}-{seeds[-1]}, one pair per seed and "
                     "workload, each side from its own clean copy; for each "
                     "seed the parent runs first when the seed is odd, the "
                     "change first when it is even; 'ran' is the order of "
                     "the runs"),
        "machine": machine(),
        "summary": {},
        "runs": [],
    }
    ran = 0
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for w in workloads:
            for side in order:
                result = run_once(getattr(ns, side), w, seed, seconds)
                doc["runs"].append({"workload": w, "seed": seed, "side": side,
                                    "ran": ran, "result": result})
                ran += 1
            doc["summary"] = summarize(doc["runs"], workloads,
                                       bench["end_to_end"])
            with open(ns.out, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
            pair = {r["side"]: r["result"] for r in doc["runs"][-2:]}
            print(f"seed {seed} {w}: failed " + ", ".join(
                f"{side} {pair[side]['failed']}" for side in order),
                flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
