"""The child processes that tests start import z2quiver from this checkout's
src/, as the tests themselves do through pyproject.toml's pytest pythonpath."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
