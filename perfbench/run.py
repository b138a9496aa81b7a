#!/usr/bin/env python3
"""Run one benchmark workload against the ``repro`` sources beside this directory.

    python3 perfbench/run.py --workload charter_ptm --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` runs the same jobs twice, untraced and then layer by layer
(see ``layers.py``), and reports the per-layer split.  ``--workload all``
runs every workload, each in its own process.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the metrics for people, with the
environment and the generated input sizes.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: One BLAS thread per process: no workload then runs more threads than
#: processors (sweep_pool's two workers match nproc on the reference host),
#: and a neighbour taking one core cannot stall a two-thread GEMM.
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args, names):
    code = 0
    for name in names:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        code = max(code, subprocess.run(command, check=False).returncode)
    return code


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = str(BLAS_THREADS)
    # Import from the sources in this checkout, never an installed copy.
    sys.path[0:1] = [SRC, ROOT]
    from perfbench.measure import run
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run(args, ROOT, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
