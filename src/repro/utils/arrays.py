"""Small shared array utilities.

Currently hosts the padded ragged-row scatter behind
:meth:`repro.roadnet.csr.CompiledRoadGraph.successor_tables`, which every
road-constrained loss and scoring path gathers from.  The test suite's
parity oracle in ``tests/reference.py`` packs the dense transition mask
through the same function, so both sides share one padding rule and the
parity test compares the successor sets themselves.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["pad_ragged_rows"]


def pad_ragged_rows(
    rows: np.ndarray, values: np.ndarray, counts: np.ndarray, num_rows: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Pack ragged per-row value lists into padded ``(idx, valid)`` tables.

    ``rows``/``values`` are parallel arrays listing each row's values in row
    order (within-row order preserved); ``counts[r]`` is row ``r``'s value
    count.  Returns ``(idx, valid)`` of shape ``(num_rows, max(counts, 1))``:
    padding slots repeat the row's *first* value (so gathers through padded
    slots read a real column and contribute exact zeros to scatter-adds) and
    ``valid`` marks the real entries.  Rows with no values keep ``idx = 0``
    and all-False ``valid``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    max_count = max(int(counts.max()) if counts.size else 0, 1)
    idx = np.zeros((num_rows, max_count), dtype=np.int64)
    valid = np.zeros((num_rows, max_count), dtype=bool)
    if rows.size:
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        positions = np.arange(rows.size, dtype=np.int64) - starts[rows]
        idx[rows, positions] = values
        valid[rows, positions] = True
        first = np.zeros(num_rows, dtype=np.int64)
        has = counts > 0
        first[has] = values[starts[has]]
        idx = np.where(valid, idx, first[:, None])
    return idx, valid
