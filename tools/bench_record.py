"""Bench record of one checkout: end-to-end wall times and the bench result lines.

    python3 tools/bench_record.py --pr 19 --seconds 25 --seed 1 --out BENCH_19.json

Run from anywhere; the checkout is the one holding this file.  The record
(one JSON object) holds:

- the commit (and whether the tree had uncommitted changes), nproc, and
  the Python, numpy and scipy versions
- the lines of the ``.py`` files under ``src/``, ``tests/``, and
  ``bench/`` + ``tools/``: net lines of code are a metric (ROADMAP.md)
- the wall time of Tier-1 (the pytest command of ROADMAP.md) and its
  summary line
- the cold-start wall time of each README command line that needs no input
  file, ``reproduce-paper --seed 1`` among them: each line runs
  ``REPEATS`` times, each time in a fresh interpreter with its own output
  directory, and the record keeps every time and their median
- the untraced result line of ``bench/run.py`` for each workload in
  BENCHMARK.json, one run each (``tools/ab_bench.run_bench``)

The traced per-layer metrics are left out: several spans in
``bench/tracing.py`` wrap functions that the program paths no longer call
(the ``trap.*``, ``rf.slice*`` and ``geometry.domain_test_*`` metrics read
0), so a record of them would report zeros as measurements.  They belong in
the record once the bench spans what the program calls.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab_bench import run_bench

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 3


def program_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))


def timed(cmd: list[str], cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time of ``cmd`` run to completion, and its finished process."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=program_env(), capture_output=True, text=True)
    return time.perf_counter() - t0, proc


def readme_commands() -> list[str]:
    """The README's ``atomchip`` command lines that read no input file."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line.*?```bash\n(.*?)```", text, re.S).group(1)
    lines = re.sub(r"\\\n\s*", "", block).splitlines()
    return [line.split("#")[0].strip() for line in lines
            if line.startswith("atomchip ") and "--input" not in line]


def cold_start(line: str) -> dict:
    """``REPEATS`` fresh-process wall times of one README command line, its
    ``out/`` directory replaced by a temporary one."""
    times = []
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as out:
            args = [out if a == "out/" else a for a in shlex.split(line)[1:]]
            seconds, proc = timed([sys.executable, "-m", "atomchip.cli", *args], ROOT)
        if proc.returncode != 0:
            sys.exit(f"error: {line!r} exited {proc.returncode}:\n{proc.stderr}")
        times.append(round(seconds, 4))
    return {"median_s": statistics.median(times), "runs_s": times}


def line_counts() -> dict:
    """Lines of the ``.py`` files in the tree under each group of directories."""
    groups = {"src": ("src",), "tests": ("tests",), "bench+tools": ("bench", "tools")}
    return {name: sum(len(path.read_text().splitlines())
                      for top in tops for path in (ROOT / top).rglob("*.py"))
            for name, tops in groups.items()}


def tier1() -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    seconds, proc = timed(cmd, ROOT)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": round(seconds, 2), "exit_status": proc.returncode, "summary": summary}


def git(*args: str) -> str | None:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number of the change recorded")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of each bench run")
    parser.add_argument("--seed", type=int, default=1, help="bench workload seed")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    status = git("status", "--porcelain")
    record = {
        "pr": args.pr,
        "commit": git("rev-parse", "HEAD"),
        "uncommitted_changes": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "lines": line_counts(),
    }
    print("Tier-1 ...", flush=True)
    record["tier1"] = tier1()
    record["cold_start"] = {}
    for line in readme_commands():
        print(line, "...", flush=True)
        record["cold_start"][line] = cold_start(line)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record["bench"] = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in spec["workloads"]:
        print("bench", workload["name"], "...", flush=True)
        record["bench"]["workloads"][workload["name"]] = run_bench(
            ROOT, workload["name"], args.seed, args.seconds)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if record["tier1"]["exit_status"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
