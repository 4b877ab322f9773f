"""Run the benchmark on two checkouts in alternating pairs and record every run.

    python scripts/bench_pairs.py --parent DIR --change DIR --workload deblur-n1000 \
        --seeds 0,61,62 [--seconds 10] [--trace 0] --out BENCH.json

Each pair runs one workload seed once in each checkout, with that checkout's
own perfbench/run.py and nothing else; the first pair of a workload runs the
parent first and the order alternates from pair to pair.  After each run it
prints that run's value of every end-to-end metric in BENCHMARK.json (None
where the run reported none).  Every run lands in
--out with its side, pair, order, seed, wall time, the checkout's commit
(``git rev-parse HEAD``) and whether its tree was dirty, and its two output
lines (the environment record and the result).  Runs already in --out are kept, so
several workloads accumulate in one file, and the summary is rebuilt over all
of them: per workload and metric, each side's median and quartiles, the
number of pairs the change won and the number of ties, which count for
neither side.  For untraced runs it also pools every set-up sample of a
side's runs (``setup_samples_s``: one in-process and two fresh-process
set-ups per run, of which ``setup_s`` keeps the median) and gives their
median and quartiles.  Whether higher or lower is better, and each
end-to-end metric's bound, come from the change's BENCHMARK.json.  An end-to-end metric
is marked ``unresolved`` when the parent's own quartile spread exceeds its
bound times the parent's median, unless every run of the change reads better
than every run of the parent: a regression of the full bound then cannot be
told from the noise of one commit.  Each end-to-end metric also states two
verdicts.  ``gain``: over at least ten pairs the change won at least nine in
ten of them (a tie counts as no win), and its median is better than the
parent's by more than the parent's quartile spread.  ``regressed``: the
change's median is worse than the parent's by more than the metric's bound
times the parent's median.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
CLAIM_PAIRS = 10  # the fewest pairs a gain is claimed on


def checkout_state(root: str) -> dict:
    """The commit a checkout is at and whether its tree differs from it
    (None for both outside a git checkout)."""

    def git(*args):
        proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if head else None
    return {"head": head, "dirty": None if status is None else bool(status)}


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    run = {"returncode": proc.returncode, "wall_s": time.perf_counter() - start}
    run.update(checkout_state(root))
    lines = proc.stdout.strip().splitlines()
    try:
        run["record"], run["result"] = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["stdout"], run["stderr"] = proc.stdout[-2000:], proc.stderr[-2000:]
    return run


def spread(values: list) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list, better: dict, bounds: dict) -> dict:
    groups = {}
    for run in runs:
        groups.setdefault((run["workload"], run["trace"]), []).append(run)
    summary = {}
    for (workload, trace), group in sorted(groups.items()):
        done = [r for r in group if "result" in r]
        pairs = {}
        for r in done:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        entry = {
            "runs_without_result": len(group) - len(done),
            "all_correct": {s: all(r["result"]["correct"] for r in done if r["side"] == s) for s in SIDES},
            "failed": {s: sum(r["result"]["failed"] for r in done if r["side"] == s) for s in SIDES},
            "metrics": {},
        }
        if not trace:
            pooled = {
                s: [v for r in done if r["side"] == s for v in r["record"]["setup_samples_s"]]
                for s in SIDES
            }
            entry["setup_samples_s"] = {s: spread(v) if v else None for s, v in pooled.items()}
        for name in sorted({m for r in done for m in r["result"]["metrics"]}):
            values = {
                side: [r["result"]["metrics"][name]["value"] for r in done if r["side"] == side] for side in SIDES
            }
            row = {side: spread(v) if v else None for side, v in values.items()}
            sign = 1.0 if better.get(name) == "higher" else -1.0
            both = [p for p in pairs.values() if all(name in p.get(s, {}) for s in SIDES)]
            row["pairs"] = len(both)
            diffs = [sign * (p["change"][name]["value"] - p["parent"][name]["value"]) for p in both]
            row["change_wins"] = sum(d > 0 for d in diffs)
            row["ties"] = sum(d == 0 for d in diffs)
            if name in bounds and all(values.values()):
                parent, change = row["parent"], row["change"]
                iqr = parent["q3"] - parent["q1"]
                wide = iqr > bounds[name] * abs(parent["median"])
                apart = min(sign * v for v in values["change"]) > max(sign * v for v in values["parent"])
                row["unresolved"] = wide and not apart
                ahead = sign * (change["median"] - parent["median"])
                row["gain"] = (
                    len(both) >= CLAIM_PAIRS and row["change_wins"] >= 0.9 * len(both) and ahead > iqr
                )
                row["regressed"] = -ahead > bounds[name] * abs(parent["median"])
            entry["metrics"][name] = row
        summary[workload + (" --trace 1" if trace else "")] = entry
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help='one pair per seed, comma separated, e.g. "0,61,62"')
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"runs": []}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    group = [r for r in doc["runs"] if (r["workload"], r["trace"]) == (args.workload, args.trace)]
    first_pair = max((r["pair"] for r in group), default=-1) + 1
    for i, seed in enumerate(seeds):
        pair = first_pair + i
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            run = run_once(roots[side], args.workload, seed, args.seconds, args.trace)
            run.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                       seed=seed, pair=pair, order=position, side=side)
            doc["runs"].append(run)
            metrics = run.get("result", {}).get("metrics", {})
            values = " ".join(f"{name}={metrics.get(name, {}).get('value')}" for name in bounds)
            print(f"{args.workload} pair {pair} seed {seed} {side}: {values}", flush=True)
            doc["summary"] = summarize(doc["runs"], better, bounds)
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
