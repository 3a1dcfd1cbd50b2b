"""Script form of ``python -m benchmarks.e2e`` (the BENCHMARK.json command)."""

import sys
from pathlib import Path

# Replace this script's own directory on the path with the repository
# root, so the package imports as ``benchmarks.e2e`` and none of its
# modules can shadow a standard-library name.
sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.cli import main  # noqa: E402

sys.exit(main())
