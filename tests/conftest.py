"""Let the tests import the scripts under tools/ by module name."""

import sys
from pathlib import Path

TOOLS = str(Path(__file__).resolve().parent.parent / "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)
