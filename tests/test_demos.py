import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo: Path) -> str:
    """The demo's stdout, run against the library in src/; it must exit 0."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    """Each demo runs to the end against the library in src/."""
    assert run_demo(demo)


def test_worked_example_prints_fig3():
    """Fig. 3's main-verb DLs and head-to-verb arcs under each strategy,
    left to right, each after its strategy's label and reordered sentence."""
    lines = run_demo(ROOT / "demos" / "worked_example.py").splitlines()
    start = lines.index("ascending (maximal DL):")
    assert lines[start:] == [
        "ascending (maximal DL):",
        "  toffee maa ne baajaar jaate samaye rote hue bacche ko di",
        "  main-verb DL = 23   arcs [9, 8, 5, 1]",
        "descending (global minimum):",
        "  rote hue bacche ko baajaar jaate samaye maa ne toffee di",
        "  main-verb DL = 13   arcs [7, 4, 2, 0]",
        "a random order:",
        "  maa ne baajaar jaate samaye toffee rote hue bacche ko di",
        "  main-verb DL = 20   arcs [9, 6, 4, 1]",
        "least-effort from that order:",
        "  maa ne baajaar jaate samaye rote hue bacche ko toffee di",
        "  main-verb DL = 17   arcs [9, 6, 2, 0]",
    ]
