"""Lets the benchmark's own tests import its modules and the package sources.

Run them from the repository root with ``python3 -m pytest perfbench``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]
