"""Record the golden output digests that run.py checks ops against.

    python3 perfbench/make_golden.py [--size full] [--seed 0] [--out perfbench/golden.json]

Runs ops 0..N-1 of every workload at one seed and writes their sha256
digests.  Rerun it only when a change is meant to alter the output bytes,
and say so where the change is described.
"""

import argparse
import contextlib
import io
import json
from pathlib import Path

import run  # pins the BLAS threads before numpy loads

# Ops recorded per workload: more than one run at --seconds 20 completes on
# a machine several times faster than the one that recorded them.
OPS = {"sweep-linear-gauss": 400, "sweep-nonlinear-kernel": 24, "discover-long-csv": 1}
TINY_OPS = 64


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=sorted(run.SIZES), default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=str(run.HERE / "golden.json"))
    args = parser.parse_args()

    mods = run.load_package()
    digests = {}
    for name, workload in sorted(run.WORKLOADS.items()):
        count = OPS[name] if args.size == "full" else min(OPS[name], TINY_OPS)
        inputs = workload.inputs(mods, args.seed, args.size, run.WORK)
        found = []
        for i in range(count):
            with contextlib.redirect_stdout(io.StringIO()):
                output = workload.op(mods, inputs, workload.config(mods, inputs, i))
            result = workload.check(inputs, output)
            if result.error is not None:
                raise SystemExit(f"{name} op {i}: {result.error}")
            found.append(result.digest)
        workload.cleanup(inputs)
        digests[name] = found
        print(f"{name}: {count} ops")
    Path(args.out).write_text(json.dumps(
        {"size": args.size, "seed": args.seed, "digests": digests}, indent=1) + "\n")


if __name__ == "__main__":
    main()
