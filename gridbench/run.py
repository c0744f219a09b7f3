"""gridevade benchmark: one workload, one seed, one JSON line.

    python3 gridbench/run.py --workload train_attacker --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`. With `--trace 0` the last line of standard output holds the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics
derived from spans recorded around gridevade's public functions, and the
spans are written to `gridbench/out/trace-<workload>-seed<seed>.json`.
A human-readable summary, including the digest of the seeded outputs,
goes to standard error.
"""

import time

# The interpreter's start-up before this line is CPU-bound; its CPU time
# stands in for the wall time from the process start to here.
_T_SCRIPT = time.perf_counter()
_STARTUP_S = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the matrices are small, the machine has 2 cores and
# the digest of the outputs must not depend on the thread split.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def since_process_start() -> float:
    """Seconds since the process started."""
    return _STARTUP_S + time.perf_counter() - _T_SCRIPT


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "gridevade" / "__init__.py").is_file():
        print(f"error: gridevade sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # The set-up's speed: reference chunks on a timer from here to the
    # end of the set-up (see hostspeed.py).
    import hostspeed

    setup_host = hostspeed.HostSpeed()
    setup_host.start_timer()
    try:
        return _run(setup_host, argv)
    finally:
        setup_host.stop_timer()


def _run(setup_host, argv) -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOAD_CLASSES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    wall = {}

    def setup_s() -> float:
        """Process start to now, less the chunks, at the host's nominal speed."""
        setup_host.stop_timer()
        setup_host.sample(force=True)  # at least one chunk, however short the set-up
        wall["setup_s"] = since_process_start()
        return setup_host.normalise_stretch(wall["setup_s"])

    result, info = workloads.run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace), BENCH_DIR / "out", setup_s)
    print(f"[{args.workload}] seed={args.seed} trace={args.trace} "
          f"rounds={len(info['round_s'])} round_s={[round(s, 3) for s in info['round_s']]} "
          f"iterations={info['iterations']} starts={info['starts']} "
          f"setup_s={info['setup_s']:.3f} (wall {wall['setup_s']:.3f}, "
          f"{len(setup_host.durations)} chunks) digest={info['digest']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
