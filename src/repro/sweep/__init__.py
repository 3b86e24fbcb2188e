"""Plane sweep.

"All three algorithms use the same module for plane sweep"
(section 5).  :func:`~repro.sweep.plane_sweep.sweep_intersections` is
that module's entry point: it reports the entity ids of every pair of
MBR-intersecting descriptors between two column blocks, through the one
vectorised kernel (:mod:`repro.fastpath.sweep`).
"""

from repro.sweep.plane_sweep import sweep_intersections, sweep_self_intersections

__all__ = ["sweep_intersections", "sweep_self_intersections"]
