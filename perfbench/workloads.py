"""The three benchmark workloads: inputs, one op, and the check of its output.

Every workload is a closed loop of ops from one client.  Inputs derive from
the workload seed alone; the program receives only the generated configs and
files.

* ``sweep-linear-gauss``: one sweep cell of PC, TPCS and TPCNS on a linear
  Gaussian VAR.  Thousands of tiny Fisher-z queries on 50-row TPC-NS
  subsamples, no kernel work, so per-query and skeleton-loop costs show here.
* ``sweep-nonlinear-kernel``: one sweep cell of TPCSHS and TPCNSHS on the
  nonlinear VAR.  Gram and resolvent work in bootstrap calibration (400 rows)
  and search, no Fisher-z work, so a kernel-engine change shows here only.
* ``discover-long-csv``: ``tspc discover`` (TPCS, Fisher-z) on a 200k-row,
  16-column CSV.  One search on a huge sample, dominated by CSV ingest, so a
  per-query optimisation should leave it unchanged.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

# Sizes: "full" is what the benchmark measures; "tiny" is for warm-up and the
# self-test.  Full sweep sizes are the SweepConfig defaults, pinned here so
# the workload does not move when a default does.
SIZES = {
    "full": {"n": 1000, "num_subsamples": 50, "hsic_max_rows": 400,
             "calibration_replicates": 100, "csv_rows": 200_000},
    "tiny": {"n": 300, "num_subsamples": 5, "hsic_max_rows": 100,
             "calibration_replicates": 5, "csv_rows": 2_000},
}

CSV_BLOCKS = ("LinearGaussianVAR", "LinearGaussianVAR",
              "ContemporaneousVARMA", "ContemporaneousVARMA")


class NonZeroExit(RuntimeError):
    """The CLI returned an exit code other than 0."""


def derive(*key) -> int:
    """A 31-bit seed from a key tuple, independent of the package's own RNG code."""
    digest = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


@dataclass
class OpResult:
    """What one op produced: its output digest, edge counts and any check error."""

    digest: str
    confusion: tuple[int, int, int, int]  # tp, fp, tn, fn
    error: str | None = None  # a failed output check


def _confusion(est: set, truth: set, p: int) -> tuple[int, int, int, int]:
    """Ordered-pair counts over all p*p pairs, self-loops included."""
    tp = len(est & truth)
    fp = len(est - truth)
    fn = len(truth - est)
    return tp, fp, p * p - tp - fp - fn, fn


def rates(c: tuple[int, int, int, int]) -> tuple[float, float]:
    """(TPR over condition positives, IFPR) in percent."""
    tp, fp, tn, fn = c
    tpr = 100.0 * tp / (tp + fn) if tp + fn else float("nan")
    ifpr = 100.0 - 100.0 * fp / (fp + tn) if fp + tn else float("nan")
    return tpr, ifpr


class Sweep:
    """One sweep cell per op, with a fresh series seed per op."""

    def __init__(self, name: str, paradigm: str, methods: tuple[str, ...]):
        self.name = name
        self.paradigm = paradigm
        self.methods = methods

    def inputs(self, mods, seed: int, size: str, workdir: Path):
        sizes = SIZES[size]
        fields = {k: sizes[k] for k in ("n", "num_subsamples", "hsic_max_rows",
                                        "calibration_replicates")}
        truth = set(mods.simulate.ground_truth(self.paradigm).edges)
        return {"fields": fields, "seed": seed, "truth": truth}

    def golden_index(self, i: int) -> int:
        return i

    def config(self, mods, inputs, i: int):
        return mods.reproduce.SweepConfig(
            paradigm=self.paradigm, methods=self.methods, reps=1,
            seed=derive(self.name, inputs["seed"], i), **inputs["fields"],
        )

    def op(self, mods, inputs, cfg):
        reproduce = mods.reproduce
        result = reproduce.run_sweep(cfg)
        return result, reproduce.metrics_csv(result), reproduce.frequency_csv(result)

    def check(self, inputs, output) -> OpResult:
        result, metrics_text, frequency_text = output
        digest = hashlib.sha256((metrics_text + frequency_text).encode()).hexdigest()
        truth = inputs["truth"]
        pooled = [0, 0, 0, 0]
        expected = {}
        for cell in result.cells:
            counts = [0, 0, 0, 0]
            for est in cell.estimates:
                for k, v in enumerate(_confusion(set(est.edges), truth, est.p)):
                    counts[k] += v
            expected[cell.method] = rates(tuple(counts))
            pooled = [a + b for a, b in zip(pooled, counts)]
        # The metrics table must state the rates the estimated graphs give.
        rows = [r for r in csv.DictReader(io.StringIO(metrics_text.split("\n", 1)[1]))
                if r.get("tpr_mode") == "condition-positives"]
        error = None
        if sorted(r["method"] for r in rows) != sorted(self.methods):
            error = f"metrics rows for {[r['method'] for r in rows]}"
        for r in rows:
            tpr, ifpr = expected.get(r["method"], (None, None))
            if tpr is None or abs(float(r["tpr"]) - tpr) > 1e-9 or abs(float(r["ifpr"]) - ifpr) > 1e-9:
                error = f"{r['method']}: metrics row {r['tpr']},{r['ifpr']} != {tpr},{ifpr}"
        return OpResult(digest, tuple(pooled), error)

    def cleanup(self, inputs) -> None:
        pass


class DiscoverCsv:
    """``tspc discover`` on one long CSV, the same file for every op."""

    name = "discover-long-csv"
    argv = ["discover", "--method", "tpcs", "--test", "gaussian", "--alpha", "0.05",
            "--tau", "2", "--stride", "1"]

    def inputs(self, mods, seed: int, size: str, workdir: Path):
        import numpy as np

        rows = SIZES[size]["csv_rows"]
        blocks = [
            mods.simulate.generate(mods.simulate.SimConfig(
                paradigm, n=rows, seed=derive(self.name, seed, b))).values
            for b, paradigm in enumerate(CSV_BLOCKS)
        ]
        values = np.hstack(blocks)
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"{self.name}-{size}.csv"
        with open(path, "w") as fh:
            fh.write(",".join(f"X{c + 1}" for c in range(values.shape[1])) + "\n")
            for start in range(0, rows, 10_000):
                chunk = values[start:start + 10_000].tolist()
                fh.write("".join(",".join(map(repr, row)) + "\n" for row in chunk))
        truth = set()
        for b, paradigm in enumerate(CSV_BLOCKS):
            truth |= {(u + 4 * b, v + 4 * b)
                      for u, v in mods.simulate.ground_truth(paradigm).edges}
        return {"csv": path, "out": workdir / f"{self.name}-{size}-out", "truth": truth,
                "p": values.shape[1]}

    def golden_index(self, i: int) -> int:
        return 0

    def config(self, mods, inputs, i: int):
        shutil.rmtree(inputs["out"], ignore_errors=True)
        return self.argv + ["--in", str(inputs["csv"]), "--out", str(inputs["out"])]

    def op(self, mods, inputs, argv):
        code = mods.cli.main(argv)
        if code != 0:
            raise NonZeroExit(f"tspc discover exited with code {code}")
        return None

    def check(self, inputs, output) -> OpResult:
        out = inputs["out"]
        parts = [(out / f).read_bytes() for f in ("graph.json", "rolled.json", "decisions.csv")]
        digest = hashlib.sha256(b"".join(parts)).hexdigest()
        graph = json.loads(parts[0])
        rolled = json.loads(parts[1])
        est = {(u - 1, v - 1) for u, v in rolled["directed"]}
        # The skeleton must be exactly the pairs the decision log never separated.
        adjacent = {frozenset(e) for e in graph["directed"] + graph["undirected"]}
        separated = {
            frozenset((int(r["i"]), int(r["j"])))
            for r in csv.DictReader(io.StringIO(parts[2].decode()))
            if r["independent"] == "true"
        }
        error = None
        for pair in map(frozenset, combinations(range(1, graph["p"] + 1), 2)):
            if (pair in adjacent) == (pair in separated):
                error = f"pair {sorted(pair)} adjacent={pair in adjacent} in the decision log"
                break
        if rolled["p"] != inputs["p"] or graph["p"] != 2 * inputs["p"]:
            error = f"graph sizes {graph['p']}, {rolled['p']} for {inputs['p']} columns"
        return OpResult(digest, _confusion(est, inputs["truth"], inputs["p"]), error)

    def cleanup(self, inputs) -> None:
        shutil.rmtree(inputs["out"], ignore_errors=True)
        inputs["csv"].unlink(missing_ok=True)


WORKLOADS = {
    w.name: w
    for w in (
        Sweep("sweep-linear-gauss", "LinearGaussianVAR", ("PC", "TPCS", "TPCNS")),
        Sweep("sweep-nonlinear-kernel", "NonlinearNonGaussianVAR", ("TPCSHS", "TPCNSHS")),
        DiscoverCsv(),
    )
}
