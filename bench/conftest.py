"""Make the checkout's polybohr sources importable for the benchmark tests.

Run from the repository root with ``python3 -m pytest bench``.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
