"""Importing the package stays cheap: no scipy module it does not use."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A fresh interpreter, since this one has loaded scipy.stats for other tests.
SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import tspc, tspc.cli, tspc.reproduce
print("scipy.stats" in sys.modules)
"""


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs most of a cold start; the Fisher-z quantile comes
    # from scipy.special.ndtri instead
    proc = subprocess.run([sys.executable, "-B", "-c", SCRIPT.format(src=str(ROOT / "src"))],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
