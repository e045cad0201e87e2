import importlib.util
import math
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_parity():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parity_quick_against_the_working_tree():
    # the working tree against itself: every group runs and none differs
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "parity.py"), "--against", str(ROOT), "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert time.perf_counter() - start <= 5.0
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["is_cp", "boundary", "cli"]
    for line in lines:
        count = int(line.split(": ")[1].split(" cases")[0])
        assert count > 0 and ", 0 differ," in line, line


def test_boundary_differences_in_units_of_delta():
    # delta = 1e-6 max(1, b), b the other tree's boundary
    parity = load_parity()
    ours = {"is_cp": [], "cli": [], "boundary": [["a", [2.0 + 3e-6, 2]], ["b", [0.5, 3]]]}
    theirs = {"is_cp": [], "cli": [], "boundary": [["a", [2.0, 2]], ["b", [0.5, 2]]]}
    report = {group: (line, differ) for group, line, differ in parity.compare(ours, theirs)}
    assert report["boundary"] == ("2 cases, 2 differ, largest difference 1 (1.5 delta)", True)
    assert report["is_cp"] == ("0 cases, 0 differ, largest difference 0", False)
    assert abs(parity.in_deltas(0.5, 0.5 + 2e-7) - 0.2) < 1e-9  # delta = 1e-6 below b = 1
    assert parity.in_deltas(math.inf, 3.0) == math.inf
