"""ctcsim benchmark: one workload, end-to-end metrics or a per-layer trace.

    python3 bench/run.py --workload loop-heavy --seed 0 --seconds 10 --trace 0

Run from a source checkout: the program is imported from ``src/`` beside
this directory.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1`` they
are the per-layer ones from spans recorded around ctcsim's public functions
(see spans.py).  Lines before it are a readable summary.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: on a 2-core machine OpenBLAS's default of one thread per
# core made cr-heavy op latency about 3x slower and far noisier.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DEFAULT_SEED = 0
SETUP_SAMPLES = 3        # fresh processes timed for setup_s, before and after ops
WORKLOAD_NAMES = ("loop-heavy", "cr-heavy", "experiments")
# The tail is this percentile of op latency, fixed per workload so that runs
# of a faster or slower program report the same statistic.  On experiments
# it is p97.5: the middle of the sim-equivalence calls (1 in 19), with about
# twice the ten ops beyond it that a tail needs in a run of BENCHMARK.json's
# length.  On loop-heavy and cr-heavy every op does equal work, so the tail
# only shows the host noise that scaling leaves: over five seeds p90 spread
# about 7% there and p97.5 11-14%, so they use p90.  A run with under ten
# ops beyond its percentile falls back to the next that has.
TAIL_PERCENTILE = {"loop-heavy": 90.0, "cr-heavy": 90.0, "experiments": 97.5}
TAIL_FALLBACK = (90.0, 75.0, 50.0)

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None,
                   help="also write the full run record as JSON to this path")
    p.add_argument("--write-reference", action="store_true",
                   help="store this seed's outputs as the reference, then exit")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)   # time set-up in this process only
    return p.parse_args(argv)


def _setup(workload: str, seed: int, workdir: Path):
    """Import ctcsim, build the workload and its first op's inputs."""
    start = time.perf_counter()
    import workloads
    w = workloads.WORKLOADS[workload](seed, workdir)
    w.op_input(0)
    return w, time.perf_counter() - start


def _setup_seconds(args) -> list[float]:
    """Set-up wall time of SETUP_SAMPLES fresh processes, one after another.
    The run takes these before and again after its ops, so that the median
    spans more than one of the host's speed levels.

    Unlike op latencies these are not scaled: over 12 fresh processes, set-up
    time scaled by the kernel timed just after the import spread 43%, and
    unscaled set-up time 6%."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _measure(w, kernel, seconds: float, first: int, tracer=None, count=None):
    """Run whole rounds of ops from index `first` for `seconds` of wall time
    (or exactly `count` ops), timing the calibration kernel before the first
    op and after each.  Returns per-op wall and scaled latencies and one
    failure message per failed op; an op fails if it raises or its output
    fails the check."""
    import speed
    wall, kernel_s, failures = [], [kernel.seconds()], []
    deadline = time.perf_counter() + seconds
    k = first
    while True:
        inp = w.op_input(k)
        start = time.perf_counter()
        try:
            out = tracer.run_op(k, w.run, inp) if tracer else w.run(inp)
        except Exception as exc:   # a raising op is a failed op; keep going
            errors = [f"{type(exc).__name__}: {exc}"]
        else:
            errors = None
        wall.append(time.perf_counter() - start)
        kernel_s.append(kernel.seconds())
        if errors is None:
            errors = w.check(k, inp, out)
        if errors:
            failures.append(f"op {k}: " + "; ".join(errors))
        k += 1
        if count is not None:
            if k - first >= count:
                break
        elif (k - first) % w.round_size == 0 and time.perf_counter() >= deadline:
            break
    return wall, speed.scale(wall, kernel_s), failures


def _tail(workload: str, latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, its latency, ops beyond it)."""
    n = len(latencies)
    for pct in (TAIL_PERCENTILE[workload],) + TAIL_FALLBACK:
        beyond = n - int(n * pct / 100)
        if beyond >= 10 or pct == TAIL_FALLBACK[-1]:
            break
    if n < 2:
        return pct, latencies[0], 0
    cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
    return pct, cuts[round(pct * 10) - 1], beyond


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def _emit(args, attempted, failures, metrics, units, details) -> None:
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    for msg in failures[:5]:
        print(f"bench: FAILED {msg}", file=sys.stderr)
    record = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in metrics.items()}}
    if args.out:
        full = dict(record, workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace, machine=machine(),
                    details=details, failures=failures[:20])
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(full, fh, indent=2)
            fh.write("\n")
    print(json.dumps(record))


def _end_to_end(args, w, kernel) -> int:
    setup = _setup_seconds(args)
    warm, _, failures = _measure(w, kernel, 0.0, 0)
    wall, scaled, more = _measure(w, kernel, args.seconds, len(warm))
    failures += more
    setup += _setup_seconds(args)
    attempted = len(warm) + len(wall)
    pct, tail, beyond = _tail(args.workload, scaled)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(scaled) / sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall_metrics = {"ops_per_s": len(wall) / sum(wall),
                    "latency_p50_ms": statistics.median(wall) * 1e3,
                    "latency_tail_ms": _tail(args.workload, wall)[1] * 1e3}
    failed = len(failures)
    print(f"{args.workload}: seed {args.seed}, {len(wall)} timed ops in "
          f"{sum(wall):.3f} s of wall time, tail = p{pct:g} ({beyond} ops "
          f"beyond), setup_s = median of {len(setup)} fresh processes, "
          f"{BLAS_THREADS} BLAS thread; op times scaled to reference speed")
    print("  unscaled: " + ", ".join(f"{n} {v:.6g}" for n, v in wall_metrics.items()))
    print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} frac "
          f"({failed} of {attempted} ops)")
    details = {"timed_ops": len(wall), "wall_s": sum(wall),
               "warmup_ops": len(warm), "tail_percentile": pct,
               "tail_ops_beyond": beyond, "setup_samples_s": setup,
               "unscaled": wall_metrics, "failed_frac": failed / attempted}
    _emit(args, attempted, failures, metrics, E2E_UNITS, details)
    return 0


def _traced(args, w, kernel) -> int:
    import spans
    warm, _, failures = _measure(w, kernel, 0.0, 0)
    _, plain, more = _measure(w, kernel, args.seconds / 2, len(warm))
    failures += more
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, traced, more = _measure(w, kernel, 0.0, len(warm), tracer,
                                   count=len(plain))
    finally:
        tracer.uninstall()
    failures += more
    attempted = len(warm) + 2 * len(plain)
    metrics = tracer.metrics(sum(traced) / sum(plain) - 1.0)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(span_file)
    ranking = tracer.ranking()
    print(f"{args.workload}: seed {args.seed}, {len(plain)} ops untraced then "
          f"traced, {len(tracer.spans)} spans written to "
          f"{span_file.relative_to(ROOT)}")
    print("  self time, largest first: " + ", ".join(
        f"{name} {t:.3f} s" for name, t in ranking[:6]))
    details = {"timed_ops": len(plain), "warmup_ops": len(warm),
               "ranking": ranking, "traced_scaled_s": sum(traced),
               "untraced_scaled_s": sum(plain)}
    _emit(args, attempted, failures, metrics, spans.metric_units(), details)
    return 0


def _write_reference(args, w) -> int:
    import workloads
    outputs = []
    w.use_stored = False
    for k in range(max(workloads.REFERENCE_OPS, w.round_size)):
        inp = w.op_input(k)
        out = w.run(inp)
        errors = w.check(k, inp, out)
        if errors:
            print(f"bench: op {k} fails its check, nothing stored: {errors[0]}",
                  file=sys.stderr)
            return 1
        outputs.append((k, inp, out))
    stored = workloads.stored_reference(args.workload)
    w.store(stored, outputs)
    path = workloads.REFERENCE_DIR / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"stored {len(outputs)} op outputs for seed {args.seed} in "
          f"{path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ctcsim" / "__init__.py").is_file():
        print(f"bench: no ctcsim sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("bench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("CTC_SIM_SEED", None)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        w, setup = _setup(args.workload, args.seed, Path(tmp))
        if args.setup_probe:
            print(repr(setup))
            return 0
        import speed
        kernel = speed.Kernel()
        if args.write_reference:
            return _write_reference(args, w)
        gc.freeze()   # leave set-up's objects out of collections during ops
        if args.trace:
            return _traced(args, w, kernel)
        return _end_to_end(args, w, kernel)


if __name__ == "__main__":
    sys.exit(main())
