"""Dynamic BEV query refinement on pillar features.

Sparse object queries are seeded on a pillar grid, then refined by
clustering each query's neighborhood, attending over the cluster
centers, and folding the attended summary back into the query.  A
lightweight temporal pass blends queries across frames.  Ships with a
synthetic scene generator, detection metrics, and a scaling bench.
"""

import os

# OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, and by
# default starts a worker thread per core.  Every BLAS product here is a few
# rows by 16 columns, far below its threading threshold, so the pool only
# costs start-up time.  Load numpy single-threaded unless the caller chose a
# value, then drop the variable so child processes inherit the caller's
# environment.  A process that loaded numpy first keeps its pool.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # noqa: F401
    del os.environ["OPENBLAS_NUM_THREADS"]

from .bevscene import read_scenes  # noqa: E402
from .dqem import init_pillars, read_detections  # noqa: E402
from .ltfm import evolve_queries  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "evolve_queries",
    "init_pillars",
    "read_detections",
    "read_scenes",
    "__version__",
]
