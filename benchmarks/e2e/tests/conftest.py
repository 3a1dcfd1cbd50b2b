"""Tests of the benchmark itself: ``pytest benchmarks/e2e/tests``.

Not part of the tier-1 ``testpaths``; they spawn real child processes
at ``--smoke`` sizes.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
