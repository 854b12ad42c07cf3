"""Record the reference outputs the benchmark compares every run against.

    python3 perfbench/record_reference.py --seeds 0-15 [--workload est-nsweep]

Run from the root of a source checkout at the commit whose outputs become
the reference. Each workload command runs once per seed in a fresh child
with the same thread pin as the benchmark, and its data output is stored
verbatim in ``perfbench/reference/<workload>.json``. Re-record only when a
change is meant to alter the numbers, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import HERE, Bench
from workloads import WORKLOADS, check_output


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(workload: str, seeds: list[int]) -> None:
    w = WORKLOADS[workload]
    bench = Bench(workload, seeds[0], 0, False, refs={})
    outputs = {}
    for seed in seeds:
        run = bench.cli_run(seed, seed)
        if run.error:
            raise SystemExit(run.error)
        text = (bench.work / f"cli-{seed}" / "out" / w.output).read_text()
        check_output(w, text)
        outputs[str(seed)] = text
        print(f"{workload} seed {seed}: {run.wall_s:.2f} s", file=sys.stderr)
    shutil.rmtree(bench.work, ignore_errors=True)
    path = HERE / "reference" / f"{workload}.json"
    path.write_text(json.dumps({"argv": list(w.argv), "outputs": outputs}, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-15")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args()
    for workload in args.workload or sorted(WORKLOADS):
        record(workload, parse_seeds(args.seeds))


if __name__ == "__main__":
    main()
