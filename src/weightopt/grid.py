"""Discretized 2D domains with uniform square cells.

A domain is a boolean mask over a regular grid of cells with spacing ``h``.
Only in-domain cells carry unknowns; every out-of-domain cell acts as a
homogeneous Dirichlet cell for the 5-point stencil.  All measures are exact
cell counts times ``h**2``, which keeps rearrangement operations integer
manipulations.

Every constructor guarantees that the outermost ring of the grid is
out-of-domain, so all four stencil neighbors of an in-domain cell exist
inside the array.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np


def unit_scale(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x 2⁻ᵉ, e) for the power of two 2ᵉ that brings max |x| into [1/2, 1),
    or e = 0 when x is all zeros.

    Every scaled value lies in (-1, 1), so sums and dot products of them do
    not overflow, and a power of two changes no bits of a value that stays
    in the normal range.  It is an ``ldexp``, since a product with 2.0**-e
    overflows for a subnormal max |x|.
    """
    x = np.asarray(x, dtype=float)
    e = math.frexp(float(np.abs(x).max()))[1]
    return np.ldexp(x, -e), e


class GridDomain:
    """Bounded open set discretized into uniform square cells.

    In-domain cells are ``mask == True``; their row-major order defines the
    cell indexing used by :class:`ScalarField`.  ``axis`` is twice the
    column index of the grid's vertical center line, ``shape[1] - 1``, when
    the domain is Steiner-symmetric about it (the mask is
    reflection-symmetric across it and every nonempty row is one interval,
    so every row is centered on it), else None.  It is even when the line
    runs through a cell-center column and odd when it runs between two
    columns; reflection maps column ``c`` to ``axis - c``.
    ``bounding_box`` is (rows, columns) of the smallest rectangle of cells
    that holds the domain.
    """

    def __init__(self, mask: np.ndarray, h: float):
        # a copy, so freezing it below leaves the caller's array writable
        mask = np.array(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("mask must be 2D")
        h = float(h)
        if not (h > 0 and 0.0 < h * h < np.inf):  # every measure is a cell count times h²
            raise ValueError(f"cell spacing h = {h!r}: need h > 0 with h² > 0 and finite")
        if not mask.any():
            raise ValueError("domain has no in-domain cells")
        if mask[0, :].any() or mask[-1, :].any() or mask[:, 0].any() or mask[:, -1].any():
            raise ValueError("in-domain cells must stay >= 1 cell away from the grid edge")

        mask.setflags(write=False)
        self.mask = mask
        self.h = h
        # Steiner-symmetric: mirror-symmetric, and no row starts a second
        # interval (the out-of-domain ring puts a gap before each start)
        steiner = (np.array_equal(mask, mask[:, ::-1])
                   and ((mask[:, 1:] & ~mask[:, :-1]).sum(axis=1) <= 1).all())
        self.axis = mask.shape[1] - 1 if steiner else None

        index_map = -np.ones(mask.shape, dtype=np.int64)
        rows, cols = np.nonzero(mask)
        index_map[rows, cols] = np.arange(rows.size)
        index_map.setflags(write=False)
        self.index_map = index_map
        self.cell_rows = rows
        self.cell_cols = cols
        self.cell_rows.setflags(write=False)
        self.cell_cols.setflags(write=False)
        self.bounding_box = (int(np.ptp(rows)) + 1, int(np.ptp(cols)) + 1)

    @cached_property
    def mirror_maps(self) -> tuple[np.ndarray, ...]:
        """The grid's reflections and rotations other than the identity that
        map the mask onto itself, each as the read-only cell permutation p
        with (m∘σ).values = m.values[p], found on first use.

        The 5-point A is invariant under each, so λ₁(m∘σ) = λ₁(m) exactly.  A
        square mask is checked against all seven, any other against the
        reflections across its two center lines and the half-turn.
        """
        idx = self.index_map
        images = [idx[::-1], idx[:, ::-1], idx[::-1, ::-1]]
        if idx.shape[0] == idx.shape[1]:
            images += [idx.T, idx.T[::-1], idx.T[:, ::-1], idx.T[::-1, ::-1]]
        maps = tuple(im[self.mask] for im in images if np.array_equal(im >= 0, self.mask))
        for p in maps:
            p.setflags(write=False)
        return maps

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

    @property
    def n_cells(self) -> int:
        return self.cell_rows.size

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    @property
    def total_measure(self) -> float:
        return self.n_cells * self.cell_area

    def field(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self, values)

    def constant_field(self, value: float) -> "ScalarField":
        return ScalarField(self, np.full(self.n_cells, float(value)))

    def subset_cells(self, subset_mask: np.ndarray) -> np.ndarray:
        """Boolean per-cell selector for a 2D subset mask; validates containment."""
        subset_mask = np.asarray(subset_mask, dtype=bool)
        if subset_mask.shape != self.mask.shape:
            raise ValueError("subset mask shape does not match the domain grid")
        if (subset_mask & ~self.mask).any():
            raise ValueError("subset contains cells outside the domain")
        return subset_mask[self.cell_rows, self.cell_cols]

    def cells_to_mask(self, selector: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`subset_cells`: per-cell booleans to a 2D mask."""
        selector = np.asarray(selector, dtype=bool)
        if selector.shape != (self.n_cells,):
            raise ValueError("selector must have one entry per in-domain cell")
        out = np.zeros(self.mask.shape, dtype=bool)
        out[self.cell_rows[selector], self.cell_cols[selector]] = True
        return out


class ScalarField:
    """Bounded measurable function sampled at in-domain cell centers.

    Values are stored per in-domain cell in the domain's row-major cell
    order and are immutable after construction.
    """

    def __init__(self, domain: GridDomain, values: np.ndarray):
        values = np.array(values, dtype=float)
        if values.shape != (domain.n_cells,):
            raise ValueError(
                f"expected {domain.n_cells} values (one per in-domain cell), got {values.shape}"
            )
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite at every in-domain cell")
        values.setflags(write=False)
        self.domain = domain
        self.values = values

    def integral(self) -> float:
        """∫f dx, summed over the values scaled by :func:`unit_scale`, so no
        partial sum overflows."""
        scaled, e = unit_scale(self.values)
        return float(np.ldexp(scaled.sum() * self.domain.cell_area, e))

    def to_grid(self) -> np.ndarray:
        """The values spread onto the full grid, nan outside the domain."""
        out = np.full(self.domain.shape, np.nan)
        out[self.domain.cell_rows, self.domain.cell_cols] = self.values
        return out


def make_rectangle(width_cells: int, height_cells: int, h: float) -> GridDomain:
    """Full rectangular domain of width_cells x height_cells cells.

    The stored grid is padded by one Dirichlet ring on each side; the
    symmetry axis runs through/between the center columns by parity.
    """
    if width_cells < 3 or height_cells < 3:
        raise ValueError("rectangle needs at least 3x3 cells")
    mask = np.zeros((height_cells + 2, width_cells + 2), dtype=bool)
    mask[1:-1, 1:-1] = True
    return GridDomain(mask, h)


def make_ellipse(nx: int, ny: int, h: float, semi_axes: tuple[float, float]) -> GridDomain:
    """Ellipse mask by strict center-inclusion on an nx x ny grid.

    The ellipse is centered on the grid; cells whose centers lie strictly
    inside belong to the domain, and a center on the ellipse within a
    relative 1e-12 (float rounding) counts as outside.  The inclusion test
    is evaluated through the integer offsets 2*i+1-nx, so the mask is
    exactly symmetric under both center-line reflections.  GridDomain
    rejects an ellipse that reaches the grid's outer ring and every h its
    spacing rule rejects, except a negative h with no cell center inside
    at |h|, which is reported as an empty ellipse.
    """
    a, b = float(semi_axes[0]), float(semi_axes[1])
    if nx < 3 or ny < 3:
        raise ValueError("grid needs at least 3x3 cells")
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")

    j = np.arange(ny)[:, None]
    i = np.arange(nx)[None, :]
    # offsets of cell centers from the grid center, in units of h/2
    u = 2 * i + 1 - nx
    v = 2 * j + 1 - ny
    # where h is not finite or a square overflows, r2 says nothing about
    # the centers: GridDomain, which owns the spacing rule, judges h first
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = (u * h / (2 * a)) ** 2 + (v * h / (2 * b)) ** 2
    mask = r2 < 1.0 - 1e-12
    if not mask.any() and np.isfinite(r2).all():
        raise ValueError("ellipse contains no cell centers at this resolution")
    return GridDomain(mask, h)


def make_box(width: float, height: float, n: int) -> GridDomain:
    """Rectangle whose effective Dirichlet boundary spans width x height.

    The 5-point stencil pins u = 0 at the first out-of-domain cell centers,
    one spacing outside the outermost in-domain centers.  With spacing
    h = 1/(n+1), an n x n block of cells therefore behaves as the unit
    square; width/height are realized as round(width*(n+1)) - 1 cells.
    """
    if n < 4:
        raise ValueError("resolution n must be at least 4")
    h = 1.0 / (n + 1)
    nx = int(round(width * (n + 1))) - 1
    ny = int(round(height * (n + 1))) - 1
    return make_rectangle(nx, ny, h)


def from_mask(mask: np.ndarray, h: float) -> GridDomain:
    """Domain from a user-supplied boolean mask (nonzero = in-domain).

    Pads by one Dirichlet ring when the mask touches the array border.
    """
    mask = np.asarray(mask).astype(bool)
    if mask.ndim != 2:
        raise ValueError("mask must be 2D")
    if mask.size and (
        mask[0, :].any() or mask[-1, :].any() or mask[:, 0].any() or mask[:, -1].any()
    ):
        mask = np.pad(mask, 1, mode="constant", constant_values=False)
    return GridDomain(mask, h)


def transpose_field(f: ScalarField) -> ScalarField:
    """The field with rows and columns swapped, on a new domain whose mask
    is the transpose of f's: its ``axis`` is f's horizontal axis."""
    td = GridDomain(f.domain.mask.T, f.domain.h)
    return ScalarField(td, f.to_grid().T[td.cell_rows, td.cell_cols])
