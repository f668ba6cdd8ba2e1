"""Benchmark of the atomchip simulator's public API.

    python3 bench/run.py --workload trap-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload's fixed, seeded operation
list runs in whole rounds for about ``--seconds``; every output is checked
against computations made apart from the program, and the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
installs span wrappers (bench/tracing.py) and gives the per-layer metrics.
Result and trace files go to bench/out/.  See bench/README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

# One process, one thread: the package's own parallelism defaults to
# threads=1, and BLAS helper threads would only add noise on a shared host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("peak_rss_mb", "MB")]


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args, WORKLOADS[args.workload]


def import_program() -> float:
    """Import atomchip from this checkout's src/; returns the import time."""
    if not (SRC / "atomchip" / "__init__.py").is_file():
        sys.exit(f"error: no atomchip package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import atomchip  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(atomchip.__file__).resolve().parent != SRC / "atomchip":
        sys.exit(f"error: imported atomchip from {atomchip.__file__}, not from {SRC}")
    return elapsed


def run_rounds(workload, seconds: float, tracer):
    """Whole rounds of the op list until another round would pass ``seconds``.

    The first round's outputs go through the workload's checks; later rounds
    must reproduce them exactly.
    """
    ops = workload.ops
    op_times, round_times, verdicts = [], [], []
    first = None
    while True:
        outputs = []
        t_round = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                with tracer.region("op") if tracer else nullcontext():
                    out = op.run()
            except Exception as exc:  # the op fails; the run goes on
                out = exc
            op_times.append(time.perf_counter() - t0)
            outputs.append(out)
        round_times.append(time.perf_counter() - t_round)

        if first is None:
            first = [repr(out) for out in outputs]
            with tracer.paused() if tracer else nullcontext():
                reasons = workload.check(outputs)
            round_one = reasons
        else:
            reasons = [
                reason if repr(out) == ref else "output differs from the first round"
                for out, ref, reason in zip(outputs, first, round_one)
            ]
        verdicts.extend(zip(ops, reasons))
        if sum(round_times) + statistics.median(round_times) > seconds:
            return op_times, round_times, verdicts


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    import_s = import_program()
    args, workload_cls = parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        uninstall = install(tracer)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = workload_cls(args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    op_times, round_times, verdicts = run_rounds(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = [(op, reason) for op, reason in verdicts if reason is not None]
    unexpected = [(op, reason) for op, reason in failed if not op.excused(reason)]
    for op, reason in dict((op.label, (op, r)) for op, r in failed).values():
        tag = f"known fault ({op.known_fault})" if op.excused(reason) else "FAILED"
        print(f"{tag}: {op.label}: {reason}")
    for op in {op.label: op for op, r in verdicts if op.known_fault and r is None}.values():
        print(f"note: {op.label} passed; its known fault ({op.known_fault}) may be mended")

    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(round_times),
            "op_p50_ms": 1e3 * statistics.median(op_times),
            "op_p90_ms": 1e3 * statistics.quantiles(op_times, n=10, method="inclusive")[-1],
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        from tracing import PER_LAYER_METRICS

        uninstall()
        metrics = tracer.per_layer_metrics()
        units = {name: unit for name, unit, _ in PER_LAYER_METRICS}
        print(f"traced wall_s {statistics.median(round_times):.4f} s, "
              f"{len(tracer.spans)} spans")

    result = {
        "correct": not unexpected,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(round_times),
              "round_s": round_times,
              "ops": [{"label": op.label, "s": t, "failure": reason}
                      for (op, reason), t in zip(verdicts, op_times)],
              "result": result}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(header, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"trace-{stem}.json", {"workload": args.workload, "seed": args.seed})

    print(f"{args.workload} seed {args.seed}: {len(round_times)} round(s), "
          f"{len(verdicts)} ops, {len(failed)} failed, "
          f"{time.perf_counter() - _START:.1f} s in all")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
