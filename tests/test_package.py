import subprocess
import sys
from pathlib import Path

import rtnqubit


def test_import_loads_no_scipy():
    # only the test suite needs scipy; the package runs on numpy alone
    src = str(Path(rtnqubit.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import rtnqubit, rtnqubit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
