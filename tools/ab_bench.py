"""A/B comparison of two checkouts on one bench workload.

    python3 tools/ab_bench.py BASE HEAD --workload roughness --pairs 10 --seconds 25

BASE and HEAD are the roots of two checkouts, for example a
``git worktree add ../base HEAD~1`` of the parent commit and this one.
Each pair runs ``bench/run.py`` once in each checkout, with the same seed,
BASE first in even pairs and HEAD first in odd ones, so that a drift of the
host spreads over both.  For each end-to-end metric the report gives the
median and quartiles of either side, the change of the medians, the pairs in
which HEAD did better and whether the change of the medians is larger than
BASE's interquartile range.  After the pairs, one traced run (``--trace 1``)
in each checkout gives the work counters, the per-layer metrics whose unit is
``count``, printed side by side.  The exit status is 1 when a run fails or is
not ``correct``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One bench run in ``root``; its result line as a dict."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: bench/run.py failed in {root} (status {proc.returncode}):\n"
                 f"{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def check(result: dict, label: str, bad: list[str]) -> None:
    """Append a line to ``bad`` when ``result`` is not correct or has failures."""
    if result["correct"] is not True or result["failed"]:
        bad.append(f"{label}: correct {result['correct']}, "
                   f"failed {result['failed']} of {result['attempted']}")


def end_to_end(root: Path) -> dict[str, str]:
    """Metric name -> "lower" or "higher" from the checkout's BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="root of the checkout to compare against")
    parser.add_argument("head", type=Path, help="root of the checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    metrics = end_to_end(args.head)
    runs = {"base": [], "head": []}
    bad = []
    for pair in range(args.pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            result = run_bench(getattr(args, side), args.workload, args.seed, args.seconds)
            runs[side].append(result)
            check(result, f"pair {pair + 1} {side}", bad)
            print(f"pair {pair + 1} {side}: " + ", ".join(
                f"{name} {result['metrics'][name]['value']:.4g}"
                for name in metrics if name in result["metrics"]), flush=True)

    print(f"\n{args.workload}, {args.pairs} pair(s) of {args.seconds:g} s runs, seed {args.seed}")
    print(f"{'metric':12s} {'base median [q1, q3]':>28s} {'head median [q1, q3]':>28s}"
          f" {'change':>8s} {'head better':>12s} {'> base IQR':>10s}")
    for name, better in metrics.items():
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        (b1, b2, b3), (h1, h2, h3) = quartiles(base), quartiles(head)
        change = (h2 - b2) / b2 if b2 else float("nan")
        beyond = "yes" if sign * (b2 - h2) > b3 - b1 else "no"
        print(f"{name:12s} {f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':>28s}"
              f" {f'{h2:.4g} [{h1:.4g}, {h3:.4g}]':>28s} {change:+8.1%}"
              f" {f'{wins}/{args.pairs}':>12s} {beyond:>10s}")

    counters = {}
    for side in ("base", "head"):
        result = run_bench(getattr(args, side), args.workload, args.seed, args.seconds, trace=1)
        check(result, f"traced {side}", bad)
        counters[side] = {name: metric["value"] for name, metric in result["metrics"].items()
                          if metric["unit"] == "count"}
    print("\nwork counters, one traced run each")
    print(f"{'counter':32s} {'base':>14s} {'head':>14s}")
    for name, value in counters["head"].items():
        print(f"{name:32s} {counters['base'].get(name, float('nan')):14.6g} {value:14.6g}")
    for line in bad:
        print("NOT CORRECT:", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
