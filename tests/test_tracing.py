"""The benchmark tracer still finds a binding for every function it wraps."""

import subprocess
import sys
from pathlib import Path

import pytest

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
values[:, 3] += values[:, 4] + values[:, 2]
tracer.begin_op(0)
result = tspc.pc(values, tspc.PcConfig(tspc.GaussianCiConfig(alpha=0.05)))
tracer.end_op(0.0)
spans = tracer.spans()
print(spans["citests.gaussian_ci_test"]["calls"], spans["citests.partial_correlation"]["calls"],
      sum(1 for query, _ in result.decisions if query.k), len(result.decisions),
      sum(1 for query, _ in result.decisions if len(query.k) == 1))
"""


@pytest.fixture(scope="module")
def traced_search():
    """(ci calls, partial_correlation calls, conditioned, logged, level 1) of one search."""
    script = TRACED_SEARCH.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-B", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(map(int, proc.stdout.split()))


def test_traced_search_takes_the_untraced_path(traced_search):
    # the tracer wraps find_skeleton's answerer and passes its level-0 table
    # through, so a traced Fisher-z search asks gaussian_ci_test only the
    # queries with a conditioning set, as an untraced one does
    calls, _, conditioned, logged, _ = traced_search
    assert 0 < conditioned < logged
    assert calls == conditioned


def test_traced_partial_correlation_sees_every_conditioned_query(traced_search):
    # one conditioning variable is answered in closed form inside
    # partial_correlation and two through LAPACK, so its span still counts both
    _, calls, conditioned, _, level1 = traced_search
    assert 0 < level1 < conditioned
    assert calls == conditioned
