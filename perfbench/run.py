"""Closed-loop benchmark of tspc: one client, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the checkout's ``src`` directory.  With
``--trace 0`` ops run untraced and the end-to-end metrics are printed; with
``--trace 1`` ops run in pairs, untraced then traced on the same input, and
the per-layer metrics are printed with the tracing overhead.  Every op's
output bytes are hashed; at the seed and size recorded in ``golden.json`` the
hash must match the recorded one.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
metric names, units and the reasons behind each workload are in METRICS.md.

``--size tiny`` and ``--golden`` exist for the self-test (``selftest.py``).
"""

import os
import sys
import time

PROCESS_START = time.perf_counter()

# Pinned before numpy loads; at most the core count of any machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))
from tracer import Tracer, install  # noqa: E402
from workloads import WORKLOADS, SIZES, rates  # noqa: E402

# name -> unit, in print order.
END_TO_END = {"op_s_p50": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed on the report lines only: the tail needs 20 ops, which the two
# long workloads do not reach in one run; the rest can be 0 or move with the
# seed, so they carry no regression bound.
REPORTED = {"op_s_tail": "s", "failed_frac": "ratio", "tpr": "%", "ifpr": "%"}

# Per-layer metrics, per traced op.  "<span>.calls|s|self_s" read the span
# totals; the others are computed in per_layer().
PER_LAYER = {
    "citests.gaussian_gamma.calls": "calls/op",
    "citests.gaussian_gamma.s": "s/op",
    "citests.partial_correlation.s": "s/op",
    "citests.gaussian_ci_test.calls": "calls/op",
    "citests.gaussian_ci_test.self_s": "s/op",
    "pc.find_skeleton.self_s": "s/op",
    "pc.orient.self_s": "s/op",
    "pc.queries": "queries/op",
    "pc.removal_frac": "ratio",
    "tpc.tpcns.self_s": "s/op",
    "tpc.subsamples": "count/op",
    "citests.hsic_conditional.calls": "calls/op",
    "citests.hsic_conditional.self_s": "s/op",
    "citests.centered_gram.calls": "calls/op",
    "citests.centered_gram.s": "s/op",
    "citests.hsic_ci_test.calls": "calls/op",
    "citests.hsic_ci_test.self_s": "s/op",
    "citests.hsic.flops_computed": "flop/op",
    "reproduce.calibration.s": "s/op",
    "citests.bootstrap.replicates": "count/op",
    "data.ingest_csv.s": "s/op",
    "tpc.unroll.s": "s/op",
    "citests.sample_covariance.s": "s/op",
    "data.write_text_atomic.calls": "calls/op",
    "data.write_text_atomic.s": "s/op",
    "cli.main.self_s": "s/op",
    "simulate.generate.calls": "calls/op",
    "simulate.generate.s": "s/op",
    "reproduce.run_sweep.self_s": "s/op",
    "graphs.meek_closure.s": "s/op",
    "graphs.roll.s": "s/op",
    "evaluate.s": "s/op",
    "tracing.op_s_p50": "s",
    "tracing.untraced_op_s_p50": "s",
    "tracing.overhead_frac": "ratio",
    "tracing.unattributed_frac": "ratio",
}
COUNTERS = ("pc.queries", "tpc.subsamples", "citests.hsic.flops_computed",
            "citests.bootstrap.replicates")
LAYERS = ("simulate", "data", "cli", "reproduce", "tpc", "pc", "citests", "graphs", "evaluate")


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    source = hashlib.sha256()
    for path in sorted((SRC / "tspc").rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def import_in_child() -> None:
    """Interpreter start plus `import tspc`, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import tspc"], env=env, check=True)


def load_package() -> SimpleNamespace:
    """The tspc modules the workloads call, imported from this checkout's src/."""
    if not (SRC / "tspc" / "__init__.py").is_file():
        sys.exit(f"error: no tspc package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tspc

    if Path(tspc.__file__).resolve().parent != SRC / "tspc":
        sys.exit(f"error: imported tspc from {tspc.__file__}, not {SRC}")
    return SimpleNamespace(**{
        name: importlib.import_module(f"tspc.{name}") for name in ("simulate", "reproduce", "cli")
    })


def tail(times: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    None below 20 samples, where that percentile would fall under the median.
    """
    n = len(times)
    if n < 20:
        return None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


class Run:
    """One workload at one seed: set-up, the timed loop, and the checks."""

    def __init__(self, args, mods):
        self.args = args
        self.mods = mods
        self.workload = WORKLOADS[args.workload]
        self.golden = self._golden(args)
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.first_error: dict[str, str] = {}
        self.digests: dict[int, set[str]] = {}
        self.checked = 0
        self.pooled = [0, 0, 0, 0]

    def _golden(self, args) -> list[str] | None:
        recorded = json.loads(Path(args.golden).read_text())
        if recorded["size"] != args.size or recorded["seed"] != args.seed:
            return None
        return recorded["digests"].get(args.workload)

    def setup(self, repeats: int):
        """Import, inputs and a tiny warm-up op, `repeats` times; median seconds."""
        samples = []
        inputs = None
        for _ in range(repeats):
            start = time.perf_counter()
            import_in_child()
            tiny = self.workload.inputs(self.mods, self.args.seed, "tiny", WORK)
            with contextlib.redirect_stdout(io.StringIO()):
                self.workload.op(self.mods, tiny, self.workload.config(self.mods, tiny, 0))
            self.workload.cleanup(tiny)
            inputs = self.workload.inputs(self.mods, self.args.seed, self.args.size, WORK)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples), inputs

    def fail(self, kind: str, message: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1
        self.first_error.setdefault(kind, message)

    def op(self, inputs, i: int, tracer: Tracer | None = None) -> tuple[float, bool]:
        """Run and check op i; returns its wall time and whether it passed."""
        wl = self.workload
        self.attempted += 1
        cfg = wl.config(self.mods, inputs, i)
        output = None
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is not None:
                tracer.begin_op(i)
            start = time.perf_counter()
            try:
                output = wl.op(self.mods, inputs, cfg)
                error = None
            except Exception as exc:  # an op that raises is counted and the run goes on
                error = (type(exc).__name__, str(exc))
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op(wall)
        if error is not None:
            self.fail(*error)
            return wall, False
        try:
            result = wl.check(inputs, output)
        except Exception as exc:  # unreadable or missing output fails the op, not the run
            self.fail("CheckFailed", f"{type(exc).__name__}: {exc}")
            return wall, False
        self.digests.setdefault(wl.golden_index(i), set()).add(result.digest)
        self.pooled = [a + b for a, b in zip(self.pooled, result.confusion)]
        if result.error is not None:
            self.fail("CheckFailed", result.error)
            return wall, False
        if self.golden is not None and wl.golden_index(i) < len(self.golden):
            self.checked += 1
            if result.digest != self.golden[wl.golden_index(i)]:
                self.fail("GoldenMismatch", f"op {i}: sha256 {result.digest}")
                return wall, False
        return wall, True

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def per_layer(tracer: Tracer, untraced: list[float]) -> dict[str, float]:
    ops = len(tracer.op_walls)
    spans = tracer.spans()
    values = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in COUNTERS:
            values[name] = tracer.counters.get(name, 0.0) / ops
        elif field in ("calls", "s", "self_s"):
            values[name] = spans.get(span, {}).get(field, 0.0) / ops
    queries = tracer.counters.get("pc.queries", 0.0)
    values["pc.removal_frac"] = tracer.counters.get("pc.removals", 0.0) / queries if queries else 0.0
    values["evaluate.s"] = sum(v["s"] for k, v in spans.items() if k.startswith("evaluate.")) / ops
    traced_p50 = statistics.median(tracer.op_walls)
    untraced_p50 = statistics.median(untraced)
    wall = sum(tracer.op_walls)
    values["tracing.op_s_p50"] = traced_p50
    values["tracing.untraced_op_s_p50"] = untraced_p50
    values["tracing.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    values["tracing.unattributed_frac"] = (wall - sum(tracer.attributed)) / wall
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--golden", default=str(HERE / "golden.json"))
    args = parser.parse_args(argv)

    mods = load_package()
    facts = machine_facts(args.seed)
    bench = Run(args, mods)
    setup_s, inputs = bench.setup(1 if args.trace else SETUP_REPEATS)
    first_op_at = time.perf_counter() - PROCESS_START

    tracer = Tracer()
    if args.trace:
        install(tracer)
    times: list[float] = []  # untraced ops that passed
    failed_times: list[float] = []
    spent = 0.0
    i = 0
    # Start another op only while it is expected to end within --seconds.
    while i == 0 or spent * (i + 1) / i <= args.seconds:
        wall, passed = bench.op(inputs, i)
        (times if passed else failed_times).append(wall)
        spent += wall
        if args.trace:
            spent += bench.op(inputs, i, tracer)[0]
        i += 1
    bench.workload.cleanup(inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tpr, ifpr = rates(tuple(bench.pooled))
    timed = times or failed_times  # failed ops are timed only when none passed
    if args.trace:
        metrics = per_layer(tracer, timed)
        units = PER_LAYER
    else:
        metrics = {
            "op_s_p50": statistics.median(timed),
            "ops_per_s": len(times) / (sum(times) + sum(failed_times)),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    reported = {"failed_frac": bench.failed / bench.attempted, "tpr": tpr, "ifpr": ifpr}
    tail_s = tail(times)

    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace} "
          f"seconds {args.seconds:g} ops {i} first_op_at_s {first_op_at:.3f}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    if tail_s is None:
        print(f"metric op_s_tail - s  # absent: {len(times)} passed ops, 20 needed")
    else:
        print(f"metric op_s_tail {tail_s[0]!r} s  # p{tail_s[1]:.2f} of {len(times)} passed ops")
    for name, value in reported.items():
        print(f"metric {name} {value!r} {REPORTED[name]}")
    if args.trace:
        spans = tracer.spans()
        ops = len(tracer.op_walls)
        wall = sum(tracer.op_walls)
        shares = {layer: sum(v["self_s"] for k, v in spans.items() if k.startswith(layer + "."))
                  / wall for layer in LAYERS}
        print("layer_self_share " + json.dumps({k: round(v, 4) for k, v in shares.items()}))
        print("spans_per_op " + json.dumps(
            {k: {f: v[f] / ops for f in v} for k, v in sorted(spans.items())}))
        print(f"op_wall_per_op {wall / ops!r}")
        tracer.save(WORK / f"spans-{args.workload}-seed{args.seed}.npz")
    golden = ("no golden digests for this seed and size" if bench.golden is None
              else f"{bench.checked - bench.failures.get('GoldenMismatch', 0)}/{bench.checked}"
              " ops match golden")
    print("op_times_s " + json.dumps([round(t, 6) for t in times]))
    print(f"golden {golden}")
    for index, digests in sorted(bench.digests.items()):
        print(f"digest {index} " + " ".join(sorted(digests)))
    for kind, count in sorted(bench.failures.items()):
        print(f"failure {kind} x{count}: {bench.first_error[kind]}")

    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
