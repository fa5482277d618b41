"""Benchmark for fiberband: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its
`src/`. Set-up (imports, building the inputs, one warm-up pass) is
timed as `setup_s`; then single passes run back to back for
`--seconds`, each checked for correctness outside the timed region.
Times are scaled to a fixed machine speed by a reference kernel timed
next to them (see `reference_s`). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
traced and untraced passes alternate and the metrics are the per-layer
ones from the spans. NOTES.md says what each metric should move.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("simulate", "sweep", "bounds", "plan")
SETUP_PROBES = 2  # fresh processes that repeat set-up; setup_s is the median
MIN_PASSES = 3
# Seconds the reference kernel takes on the machine the benchmark was
# tuned on when no other tenant slows it. Reported times are wall times
# multiplied by REF_NOMINAL_S / (reference time measured next to them).
REF_NOMINAL_S = 0.030
REF_LOOP = 200_000
REF_FFT_PAIRS = 200


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Import the workloads against this checkout's src/, or exit."""
    if not (SRC / "fiberband" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fiberband package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fiberband

    if Path(fiberband.__file__).resolve().parent != SRC / "fiberband":
        sys.exit(f"perfbench: fiberband imported from {fiberband.__file__}, not {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def reference_s() -> float:
    """Wall seconds of a fixed kernel owned by the benchmark.

    An interpreter loop plus numpy FFT pairs at n = 2048, the two kinds
    of work the workloads mix. On a shared machine whose speed drifts by
    tens of percent over seconds, the ratio of a pass to this kernel
    timed beside it is steady where the raw wall time is not.
    """
    import numpy as np

    field = np.exp(1j * np.linspace(0.0, 50.0, 2048))
    t = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    for _ in range(REF_FFT_PAIRS):
        np.fft.ifft(np.fft.fft(field))
    return time.perf_counter() - t


def setup_probe(args) -> float:
    """Scaled set-up seconds of a fresh process running the same workload."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--setup-probe"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=170)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def environment() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads_pinned": {var: os.environ[var] for var in THREAD_VARS},
    }


def fft_pair_us(n: int = 2048, reps: int = 200, batches: int = 5) -> dict:
    """Median wall time of one fft + ifft pair at n, numpy against scipy.fft.

    Informational only (no metric): a data point for whether scipy.fft
    is worth a second dependency.
    """
    import numpy as np

    q = np.exp(1j * np.linspace(0.0, 50.0, n))
    backends = {"numpy": np.fft}
    try:
        import scipy.fft

        backends["scipy"] = scipy.fft
    except ImportError:
        pass
    out = {}
    for name, mod in backends.items():
        mod.ifft(mod.fft(q))
        times = []
        for _ in range(batches):
            t = time.perf_counter()
            for _ in range(reps):
                mod.ifft(mod.fft(q))
            times.append((time.perf_counter() - t) / reps * 1e6)
        out[name] = statistics.median(times)
    return out


def tail(values: list) -> tuple:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None, None
    pct = (100 * (n - 10)) // n
    rank = max(0, -(-pct * n // 100) - 1)  # nearest-rank
    return pct, sorted(values)[rank]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.seconds > 0:
        sys.exit("perfbench: --seconds must be positive")
    workloads, tracing = import_package()
    import_s = time.perf_counter() - T0

    OUT.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    failures = []

    def check(result):
        nonlocal attempted, failed
        for name, ok in wl.check(result):
            attempted += 1
            if not ok:
                failed += 1
                failures.append(name)

    with tempfile.TemporaryDirectory(dir=OUT) as work:
        t = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(work))
        build_s = time.perf_counter() - t
        t = time.perf_counter()
        result = wl.run()
        warm_s = time.perf_counter() - t
        setup_wall_s = time.perf_counter() - T0
        check(result)
        setup_ref_s = statistics.median(reference_s() for _ in range(3))
        own_setup_s = setup_wall_s * REF_NOMINAL_S / setup_ref_s
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        setups = [own_setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        setup_s = statistics.median(setups)

        tracer = tracing.Tracer() if args.trace else None
        untraced, traced, walls, refs = [], [], [], [reference_s()]
        start = time.perf_counter()
        while len(walls) < MIN_PASSES or (
            time.perf_counter() - start + walls[-1] + refs[-1] <= args.seconds
        ):
            trace_this = tracer is not None and len(walls) % 2 == 1
            if trace_this:
                tracer.install()
                try:
                    with tracer.span("bench.pass"):
                        t = time.perf_counter()
                        result = wl.run()
                        wall = time.perf_counter() - t
                finally:
                    tracer.uninstall()
            else:
                t = time.perf_counter()
                result = wl.run()
                wall = time.perf_counter() - t
            refs.append(reference_s())
            walls.append(wall)
            scaled = wall * REF_NOMINAL_S / (0.5 * (refs[-2] + refs[-1]))
            (traced if trace_this else untraced).append(scaled)
            check(result)
        notes = wl.notes() if hasattr(wl, "notes") else ""

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment()
    env["fft_pair_us_n2048"] = fft_pair_us()
    pass_s = statistics.median(untraced)
    pct, pct_value = tail(untraced)
    untraced_walls = walls[0::2] if tracer is not None else walls

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 caller, 1 thread")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"reference kernel: median {statistics.median(refs):.4f} s wall "
          f"(nominal {REF_NOMINAL_S} s); times below are scaled to nominal speed")
    print(f"setup_s      {setup_s:.4f} s  (median of {len(setups)} processes; this one: "
          f"imports {import_s:.4f}, inputs {build_s:.4f}, warm-up pass {warm_s:.4f} wall)")
    tail_text = (f"p{pct} {pct_value:.4f} s" if pct is not None
                 else "no percentile has ten samples beyond it")
    print(f"pass_s       {pass_s:.4f} s  (median of {len(untraced)} untraced passes; "
          f"{tail_text}; wall median {statistics.median(untraced_walls):.4f} s)")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"error_rate   {failed / attempted:.4g}  ({failed} failed / {attempted} checks attempted)")
    if notes:
        print(notes)
    if failures:
        print(f"failed checks: {sorted(set(failures))}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "setup": {"imports_s": import_s, "inputs_s": build_s, "warm_s": warm_s,
                  "wall_s": setup_wall_s, "scaled_s": setups},
        "reference_s": refs,
        "wall_pass_s": walls,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "attempted": attempted,
        "failed": failed,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        metrics = tracing.layer_metrics(
            tracer.spans, len(traced), REF_NOMINAL_S / statistics.median(refs)
        )
        metrics["bench.reference_s"] = (statistics.median(refs), "s")
        metrics["trace.pass_s"] = (statistics.median(traced), "s")
        metrics["trace.overhead_s"] = (statistics.median(traced) - pass_s, "s")
        for name, (value, unit) in metrics.items():
            print(f"{name:40s} {value:.6g} {unit}")
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.spans) + "\n")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (pass_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
