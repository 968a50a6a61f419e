"""Make the benchmarks directory importable as a flat module set, and the
repository root too, so benches can import the test oracles
(``tests.oracles``)."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE))
