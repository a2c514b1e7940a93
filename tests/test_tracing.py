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
