"""Self-test of the benchmark at a tiny size; not part of the package's test suite.

    python3 perfbench/selftest.py

For every workload it checks that:
* every end-to-end metric of BENCHMARK.json, and the report-only ones, is
  printed with its unit, and the run passes against freshly recorded digests;
* a corrupted golden digest drives failed_frac to 1;
* the traced run prints every per-layer metric of BENCHMARK.json, and the
  span self times plus the unattributed share add up to the op wall time.
Exits 1 on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def bench(*args: str) -> tuple[dict[str, tuple[str, str]], dict, list[str]]:
    """Run run.py; returns the metric lines as name -> (value, unit), the result, all lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "tiny", "--seed", "0", "--seconds", "0.5",
         *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split("#")[0].split()
            printed[name] = (value, unit)
    return printed, json.loads(lines[-1]), lines


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    sys.path.insert(0, str(HERE))
    from run import REPORTED

    WORK.mkdir(exist_ok=True)
    golden = WORK / "golden-tiny.json"
    subprocess.run([sys.executable, str(HERE / "make_golden.py"), "--size", "tiny",
                    "--out", str(golden)], cwd=ROOT, check=True, capture_output=True, timeout=300)
    recorded = json.loads(golden.read_text())
    corrupted = WORK / "golden-tiny-corrupted.json"
    corrupted.write_text(json.dumps({**recorded, "digests": {
        name: [("0" if d[0] != "0" else "1") + d[1:] for d in digests]
        for name, digests in recorded["digests"].items()}}))

    for workload in [w["name"] for w in spec["workloads"]]:
        printed, result, lines = bench("--workload", workload, "--trace", "0",
                                       "--golden", str(golden))
        check(result["correct"] and result["failed"] == 0, f"{workload}: passes against golden")
        check(f"golden {result['attempted']}/{result['attempted']} ops match golden" in lines,
              f"{workload}: all {result['attempted']} ops were checked against golden digests")
        check({k: v["unit"] for k, v in result["metrics"].items()} == end_to_end,
              f"{workload}: result holds every end-to-end metric with its unit")
        expected = {**end_to_end, **REPORTED}
        check(all(printed.get(name, (None, None))[1] == unit for name, unit in expected.items()),
              f"{workload}: report prints {sorted(expected)} with units")

        printed, result, _ = bench("--workload", workload, "--trace", "0",
                                   "--golden", str(corrupted))
        check(float(printed["failed_frac"][0]) == 1.0 and result["failed"] == result["attempted"],
              f"{workload}: a corrupted golden digest gives failed_frac 1")

        printed, result, lines = bench("--workload", workload, "--trace", "1",
                                       "--golden", str(golden))
        check({k: v["unit"] for k, v in result["metrics"].items()} == per_layer,
              f"{workload}: traced result holds every per-layer metric with its unit")
        spans = json.loads(next(l for l in lines if l.startswith("spans_per_op "))[13:])
        wall = float(next(l for l in lines if l.startswith("op_wall_per_op ")).split()[1])
        unattributed = result["metrics"]["tracing.unattributed_frac"]["value"] * wall
        total = sum(s["self_s"] for s in spans.values()) + unattributed
        check(abs(total - wall) <= 1e-9 * wall,
              f"{workload}: self times plus unattributed {total:.9f} s = op wall {wall:.9f} s")
    print("selftest passed")


if __name__ == "__main__":
    main()
