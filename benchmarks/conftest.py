"""Benchmark suite configuration: put benchmarks/ on the import path, for
engine_cache, wall and the e2e package."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
