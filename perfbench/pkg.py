"""Locate the checkout and import pmtcount from its own src/ tree."""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingPackage(RuntimeError):
    """The checkout holds no importable pmtcount source tree."""


def load_package():
    """Import pmtcount from ROOT/src and never from anywhere else."""
    if not (SRC / "pmtcount" / "__init__.py").is_file():
        raise MissingPackage(f"no package source at {SRC / 'pmtcount'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pmtcount

    if Path(pmtcount.__file__).resolve().parent != SRC / "pmtcount":
        raise MissingPackage(f"pmtcount imported from {pmtcount.__file__}")
    return pmtcount
