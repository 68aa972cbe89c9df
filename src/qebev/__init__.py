"""Dynamic BEV query refinement on pillar features.

Sparse object queries are seeded on a pillar grid, then refined by
clustering each query's neighborhood, attending over the cluster
centers, and folding the attended summary back into the query.  A
lightweight temporal pass blends queries across frames.  Ships with a
synthetic scene generator, detection metrics, and a scaling bench.
"""

from .bevscene import read_scenes
from .dqem import init_pillars, read_detections
from .ltfm import evolve_queries

__version__ = "0.1.0"

__all__ = [
    "evolve_queries",
    "init_pillars",
    "read_detections",
    "read_scenes",
    "__version__",
]
