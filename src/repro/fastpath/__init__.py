"""repro.fastpath — the in-memory vectorized execution mode.

The simulated-ledger path (:mod:`repro.core`) is the *model* of the
paper's 1997 system; this package is the *raw-speed* counterpart
(ROADMAP: "true in-memory fast path", after Tsitsigkos & Mamoulis,
PAPERS.md 1908.11740): the same S3J size-separation structure — level
classification, Hilbert-cell assignment — executed over columnar NumPy
arrays with one 1D forward-sweep kernel call per cell level on
rank-composite keys, and zero PagedFile/BufferPool simulation.

Selected with ``spatial_join(..., mode="memory")`` or
``repro join --mode memory``; differentially verified against the
ledger mode by :func:`repro.verify.run_cross_mode`.
"""

from repro.fastpath.columnar import ColumnarDataset
from repro.fastpath.join import (
    DEFAULT_CELL_OCCUPANCY,
    default_cell_level,
    memory_spatial_join,
)
from repro.fastpath.sweep import forward_sweep_pairs, sweep_intersecting_pairs

__all__ = [
    "ColumnarDataset",
    "DEFAULT_CELL_OCCUPANCY",
    "default_cell_level",
    "forward_sweep_pairs",
    "memory_spatial_join",
    "sweep_intersecting_pairs",
]
