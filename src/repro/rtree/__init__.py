"""In-memory R-tree (Guttman 1984), built by quadratic-split insertion.

SHJ's join phase "reads one partition into main memory, builds an
R-tree index on it, and processes the second partition by probing the
index with each entity" (section 2.2).  This is that R-tree.
"""

from repro.rtree.rtree import RTree

__all__ = ["RTree"]
