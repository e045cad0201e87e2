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
    groups = ["is_cp", "boundary", "cli", "profiles", "ensembles"]
    assert [line.split(":")[0] for line in lines] == groups
    for line in lines:
        count = int(line.split(": ")[1].split(" cases")[0])
        assert count > 0 and ", 0 differ," in line, line


def test_boundary_differences_in_units_of_delta():
    # delta = 1e-6 max(1, b), b the other tree's boundary
    parity = load_parity()
    empty = {"is_cp": [], "cli": [], "profiles": [], "ensembles": []}
    ours = {**empty, "boundary": [["a", [2.0 + 3e-6, 2]], ["b", [0.5, 3]]]}
    theirs = {**empty, "boundary": [["a", [2.0, 2]], ["b", [0.5, 2]]]}
    report = {group: (line, differ) for group, line, differ in parity.compare(ours, theirs)}
    assert report["boundary"] == ("2 cases, 2 differ, largest difference 1 (1.5 delta)", True)
    assert report["is_cp"] == ("0 cases, 0 differ, largest difference 0", False)
    assert abs(parity.in_deltas(0.5, 0.5 + 2e-7) - 0.2) < 1e-9  # delta = 1e-6 below b = 1
    assert parity.in_deltas(math.inf, 3.0) == math.inf


def test_profile_differences_where_the_other_tree_has_nan():
    # a value the other tree returned as nan, or a check it failed on nan
    parity = load_parity()
    nan_error = "NotAStateError: Bloch vector norm must be <= 1, got nan"
    empty = {"is_cp": [], "cli": [], "boundary": [], "ensembles": []}
    ours = {**empty, "profiles": [["a", [1.0, 0.0]], ["b", [0.0]], ["c", [0.5, 0.0]], ["d", [2.0]]]}
    nan = math.nan
    theirs = {**empty, "profiles": [["a", [1.0, nan]], ["b", [nan_error]], ["c", [0.25, nan]], ["d", [2.0]]]}
    report = {group: (line, differ) for group, line, differ in parity.compare(ours, theirs)}
    line, differ = report["profiles"]
    assert differ and line.startswith("4 cases, 3 differ,")
    assert line.endswith("(2 only where the other tree has nan)")
