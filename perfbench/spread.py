#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads sv_wide cold_small --seeds 1 2 3 4 5 \
        --seconds 20

Each run is a separate ``run.py`` process, one after another.  The spread
is the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), the figure
``BENCHMARK.json``'s bounds are judged against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    code = 0
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            done = subprocess.run(command, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                code = 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
                code = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, series in values.items():
            middle = statistics.median(series)
            spread = statistics.quantiles(series, n=4) if len(series) > 1 else [middle] * 3
            share = (spread[2] - spread[0]) / middle if middle else 0.0
            bound = bounds.get(name)
            flag = " OVER a third of bound" if bound and share > bound / 3 else ""
            print(f"{workload:12s} {name:28s} median {middle:12.6g} spread {share:7.3f}"
                  f" bound {bound}{flag}")
            print(f"{'':12s} {'':28s} values {' '.join(f'{v:.5g}' for v in series)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
