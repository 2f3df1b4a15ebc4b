"""Put the checkout's own ``src`` first on ``sys.path``.

The benchmark measures the source tree it sits in, never an installed
copy: without ``src/semimatch`` next to ``perfbench`` it exits non-zero
before printing any result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def use_checkout_source() -> None:
    if not (SRC / "semimatch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no semimatch package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_imported_from_checkout() -> None:
    import semimatch

    where = Path(semimatch.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"perfbench: semimatch was imported from {where}, not {SRC}")
