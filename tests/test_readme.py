"""The README's library tour runs and prints what its comments promise."""

import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_prints_its_promised_lines(subprocess_env):
    tour = README.read_text().split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    run = subprocess.run([sys.executable, "-c", code], env=subprocess_env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["{1: 24, 2: 24}", "True"]
