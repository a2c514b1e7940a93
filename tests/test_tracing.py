"""The benchmark tracer still finds a binding for every function it wraps."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The tracer rebinds tspc functions in every loaded module, so it runs in a
# child process and leaves this one untouched.
INSTALL = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import tspc, tspc.cli, tspc.reproduce
from tracer import Tracer, install
print(install(Tracer()))
"""


def test_tracer_installs():
    # install raises "no binding of ..." once a traced function is renamed
    # or deleted, which a traced benchmark run would only report at its start
    script = INSTALL.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-B", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


TRACED_SEARCH = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import tspc, tspc.cli, tspc.reproduce
from tracer import Tracer, install
from tspc.rng import make_generator
tracer = Tracer()
install(tracer)
values = make_generator(9320).normal(size=(60, 5))
values[:, 4] += values[:, 0] + values[:, 1]
values[:, 3] += values[:, 4]
tracer.begin_op(0)
result = tspc.pc(values, tspc.PcConfig(tspc.GaussianCiConfig(alpha=0.05)))
tracer.end_op(0.0)
print(tracer.spans()["citests.gaussian_ci_test"]["calls"],
      sum(1 for query, _ in result.decisions if query.k), len(result.decisions))
"""


def test_traced_search_takes_the_untraced_path():
    # the tracer wraps find_skeleton's answerer and passes its level-0 table
    # through, so a traced Fisher-z search asks gaussian_ci_test only the
    # queries with a conditioning set, as an untraced one does
    script = TRACED_SEARCH.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-B", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls, conditioned, logged = map(int, proc.stdout.split())
    assert 0 < conditioned < logged
    assert calls == conditioned
