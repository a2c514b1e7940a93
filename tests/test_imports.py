"""The package's import surface: cheap to load, every export and traced name resolves."""

import importlib
import importlib.util
import inspect
import re
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


def test_every_export_resolves():
    import tspc

    missing = [name for name in tspc.__all__ if not hasattr(tspc, name)]
    assert missing == []
    assert len(set(tspc.__all__)) == len(tspc.__all__)


def test_readme_library_section_lists_the_exports():
    import tspc

    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = [name for line in section.splitlines() if line.startswith("- `tspc.")
              for name in re.findall(r"`(\w+)`", line.split(":", 1)[1])]
    assert sorted(listed) == sorted(tspc.__all__)


# The parameters each tracer hook reads through inspect.signature binding.
HOOK_PARAMETERS = {
    ("tspc.pc", "find_skeleton"): {"ci"},
    ("tspc.tpc", "tpcns"): {"config"},
    ("tspc.citests.bootstrap", "stationary_bootstrap_threshold"): {"config"},
    ("tspc.citests.hsic", "hsic_conditional"): {"x", "z"},
}


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracer.py wraps these functions by module and name and binds
    # its hooks' arguments by parameter name; a rename breaks traced runs
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {name: importlib.import_module(name) for name in tracer.WRAPPED}
    for module, functions in tracer.WRAPPED.items():
        for name in functions:
            assert inspect.isfunction(getattr(modules[module], name, None)), f"{module}.{name}"
    assert set(tracer._hooks(modules)) == set(HOOK_PARAMETERS)
    for (module, name), params in HOOK_PARAMETERS.items():
        assert params <= set(inspect.signature(getattr(modules[module], name)).parameters)
