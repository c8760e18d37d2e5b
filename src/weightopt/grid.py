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

import numpy as np


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
        """∫f dx, summed with f scaled by the power of two that brings max |f|
        into [1/2, 1), so no partial sum overflows; the scaling is exact."""
        e = int(np.frexp(np.abs(self.values).max())[1])
        return float(np.ldexp(np.ldexp(self.values, -e).sum() * self.domain.cell_area, e))

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
    if h <= 0:
        raise ValueError("cell spacing h must be positive")
    mask = np.zeros((height_cells + 2, width_cells + 2), dtype=bool)
    mask[1:-1, 1:-1] = True
    return GridDomain(mask, h)


def make_ellipse(nx: int, ny: int, h: float, semi_axes: tuple[float, float]) -> GridDomain:
    """Ellipse mask by strict center-inclusion on an nx x ny grid.

    The ellipse is centered on the grid; cells whose centers lie strictly
    inside belong to the domain, and a center on the ellipse within a
    relative 1e-12 (float rounding) counts as outside.  The inclusion test
    is evaluated through the integer offsets 2*i+1-nx, so the mask is
    exactly symmetric under both center-line reflections.  An ellipse that
    reaches the grid's outer ring is rejected by GridDomain.
    """
    a, b = float(semi_axes[0]), float(semi_axes[1])
    if nx < 3 or ny < 3:
        raise ValueError("grid needs at least 3x3 cells")
    if h <= 0:
        raise ValueError("cell spacing h must be positive")
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")

    j = np.arange(ny)[:, None]
    i = np.arange(nx)[None, :]
    # offsets of cell centers from the grid center, in units of h/2
    u = 2 * i + 1 - nx
    v = 2 * j + 1 - ny
    mask = (u * h / (2 * a)) ** 2 + (v * h / (2 * b)) ** 2 < 1.0 - 1e-12
    if not mask.any():
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
    if mask.shape[0] and (
        mask[0, :].any() or mask[-1, :].any() or mask[:, 0].any() or mask[:, -1].any()
    ):
        mask = np.pad(mask, 1, mode="constant", constant_values=False)
    return GridDomain(mask, h)


def transpose_field(f: ScalarField) -> ScalarField:
    """The field with rows and columns swapped, on a new domain whose mask
    is the transpose of f's: its ``axis`` is f's horizontal axis."""
    td = GridDomain(f.domain.mask.T, f.domain.h)
    return ScalarField(td, f.to_grid().T[td.cell_rows, td.cell_cols])
