"""Inventory of the ``REPRO_*`` environment knobs the package reads.

Every knob is a code path to keep working and a name to document, so the
set is frozen here: adding (or removing) one must be a deliberate edit.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

KNOBS = frozenset(
    {
        "REPRO_BUFFER_REUSE",
        "REPRO_CACHE_DIR",
        "REPRO_CACHE_MEMO",
        "REPRO_DTYPE",
        "REPRO_FUSED_BLOCKS",
        "REPRO_IN_WORKER",
        "REPRO_LOCK_STALE_S",
        "REPRO_SERVE_FASTPATH",
        "REPRO_TS_MAX_WINDOWS",
        "REPRO_TS_RESERVOIR",
        "REPRO_TS_WINDOW",
        "REPRO_WORKERS",
    }
)


def test_knob_inventory_is_frozen():
    pattern = re.compile(r"REPRO_[A-Z][A-Z_]+")
    found = {
        name
        for path in SRC.rglob("*.py")
        for name in pattern.findall(path.read_text(encoding="utf-8"))
    }
    assert found == KNOBS, (
        f"added: {sorted(found - KNOBS)}, removed: {sorted(KNOBS - found)}"
    )
