"""Make the benchmark modules and this checkout's palettebox importable."""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"

# the same environment perfbench/run.py gives itself and its children
os.environ["PALETTEBOX_BACKEND"] = "python"
os.environ["PYTHONPATH"] = str(SRC)
sys.path[:0] = [str(BENCH), str(SRC)]
