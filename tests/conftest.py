"""Subprocesses that the suite starts import the package from src/ as well,
as the suite itself does through the `pythonpath` setting in pyproject.toml,
so the suite runs from a fresh checkout without an install."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
