"""A CFD-vertex-like point data set (the paper's CFD stand-in).

The original data set describes a 2-D cross section of a Boeing 737
wing with flaps out in landing configuration: 208,688 mesh nodes,
"dense in areas of great change ... and sparse in areas of little
change", with a large central cluster so skewed that SHJ's sampling
degenerates and PBSM needs heavy repartitioning (section 5.2.1).

The stand-in reproduces the structure of such a mesh: points
concentrated along an airfoil outline (plus a deployed flap outline
behind it), with wall-normal offsets following a boundary-layer-like
power law — extremely dense within a hair of the surfaces, thinning
rapidly into the far field.  See DESIGN.md's substitution table.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.shapes import Point
from repro.join.dataset import SpatialDataset


def cfd_points(
    count: int,
    chord: float = 0.06,
    thickness: float = 0.008,
    wall_offset: float = 2e-5,
    far_field: float = 0.45,
    decay: float = 5.0,
    far_fraction: float = 0.02,
    seed: int = 0,
    name: str = "CFD",
) -> SpatialDataset:
    """``count`` mesh-node-like points around an airfoil with flap.

    Each near-field point sits at a surface point of the main airfoil
    (80%) or the deployed flap (20%), pushed along the surface normal
    by ``wall_offset * (far_field / wall_offset) ** u**decay`` — a
    boundary-layer profile putting most nodes within a hair of the
    surfaces.  ``far_fraction`` of the points are uniform background.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 0.0 < wall_offset < far_field <= 0.5:
        raise ValueError("need 0 < wall_offset < far_field <= 0.5")
    if not 0.0 <= far_fraction <= 1.0:
        raise ValueError("far_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    near = count - int(count * far_fraction)

    on_flap = rng.random(near) < 0.2
    # Chordwise parameter, denser at the leading/trailing edges where
    # the solution changes fastest.
    t = rng.beta(0.6, 0.6, size=near)
    upper = np.where(rng.random(near) < 0.5, 1.0, -1.0)
    sx, sy, nx, ny = _surface(t, upper, on_flap, chord, thickness)
    offset = wall_offset * (far_field / wall_offset) ** (rng.random(near) ** decay)
    xs = sx + offset * nx
    ys = sy + offset * ny

    far = count - near
    xs = np.concatenate([xs, rng.random(far)])
    ys = np.concatenate([ys, rng.random(far)])
    xs = np.clip(xs, 0.0, 1.0)
    ys = np.clip(ys, 0.0, 1.0)

    return SpatialDataset.from_columns(
        name, np.arange(count), xs, ys, xs, ys, geometry=(Point, (xs, ys)),
        description=(
            f"{count} mesh-node-like points around an airfoil-with-flap "
            "cross section"
        ),
    )


def _surface(
    t: np.ndarray,
    upper: np.ndarray,
    on_flap: np.ndarray,
    chord: float,
    thickness: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Surface point and outward normal at chordwise parameter ``t`` on
    the chosen surface (``upper`` is +1/-1) of the main airfoil or
    (where ``on_flap``) of the deployed flap."""
    scale = np.where(on_flap, 0.5, 1.0)
    dx = np.where(on_flap, 0.55 * chord, chord)
    x = np.where(
        on_flap,
        0.5 + 0.45 * chord + 0.55 * chord * t,  # flap trails the main element
        0.5 - 0.6 * chord + chord * t,
    )
    # A rounded-nose, sharp-tail half-thickness profile.
    half = thickness * scale * (1.2 * np.sqrt(t + 1e-9) * (1.0 - t) + 0.05)
    # Flap deflected downward behind the main element.
    camber = np.where(on_flap, 0.5 - 0.8 * thickness * (1.0 + 2.0 * t), 0.5)
    y = camber + upper * half
    # Outward normal from the slope of the half-thickness curve.
    slope = thickness * scale * (
        0.6 / np.sqrt(t + 1e-2) - 1.8 * np.sqrt(t + 1e-9)
    )
    norm = np.hypot(dx, slope)
    nx = -upper * slope / norm
    ny = upper * dx / norm
    return x, y, nx, ny
