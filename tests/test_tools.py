import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
