"""Record a baseline: every workload once untraced and once traced.

    python3 perfbench/baseline.py [--seed 0] [--seconds N]

Runs ``run.py`` with ``--trace 0`` and ``--trace 1`` for each workload,
including ``closed_loop_n40``, which BENCHMARK.json does not gate.  Writes
their metrics and a description of the machine to
``perfbench/BASELINE.json``.  Not part of a benchmark run.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
from episodes import WORKLOADS  # noqa: E402


def machine() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.setdefault(workload, {})[f"trace{trace}"] = {
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: [m["value"], m["unit"]]
                            for name, m in result["metrics"].items()},
            }
    out = {"machine": machine(), "seed": args.seed, "run_seconds": args.seconds,
           "runs": runs}
    (HERE / "BASELINE.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
