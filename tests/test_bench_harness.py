"""The bench harness's own tests, run as part of this suite.

perfbench/ reads the package as it stands: it measures spans such as
cycles.candidate and counts the modules that real3x1.cli registers.  A source
change that breaks one of those assumptions fails here, not only when the
bench runs.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_harness_tests_pass():
    """python -m unittest discover -s perfbench/tests, from the root of the checkout, passes."""
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ran = re.search(r"^Ran (\d+) tests? in ", proc.stderr, re.MULTILINE)
    assert ran and int(ran.group(1)) > 0, proc.stderr
