"""Query benchmark: HiveQL requests timed end to end on both substrates.

``python -m benchmarks.query run|trace|agree`` — see README.md in this
directory. The benchmark imports ``repro`` as a library from the
checkout's own ``src/`` tree, so it always measures the sources next to
it rather than an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
"""The checkout this benchmark lives in."""

SRC = ROOT / "src"

if (SRC / "repro" / "__init__.py").is_file() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
