"""Discrete Steiner symmetrization across the domain's vertical axis.

Sets are symmetrized row by row: the k in-domain cells of a row are
replaced by k cells centered on the axis.  Functions are symmetrized by
sorting each row's values and placing them center-outward, alternating
left-then-right, which makes every superlevel set of the result the
symmetrized superlevel set of the input.

When exact centering is impossible (row width and cell count of opposite
parity) the extra cell always goes to the lower column index; the same
rule in both the set and function operations is what keeps superlevel
consistency cell-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridDomain, ScalarField

DEFECT_FLOOR = 1e-30     # denominator floor of symmetry_defect for f = 0


class SteinerAxisError(ValueError):
    """Domain lacks an axis or is not row-convex around it."""


@dataclass(frozen=True)
class AxisSection:
    """One grid row's in-domain interval [col_start, col_stop)."""

    row: int
    col_start: int
    col_stop: int

    @property
    def width(self) -> int:
        return self.col_stop - self.col_start


def row_sections(domain: GridDomain) -> list[AxisSection]:
    """Per-row in-domain intervals of a Steiner-symmetric domain.

    Requires every nonempty row to be a single interval centered on the
    domain's vertical axis.
    """
    if domain.axis is None:
        raise SteinerAxisError("domain has no symmetry axis")
    center2 = domain.axis.center2
    sections = []
    for r in range(domain.height):
        cols = np.flatnonzero(domain.mask[r])
        if cols.size == 0:
            continue
        lo, hi = int(cols[0]), int(cols[-1])
        if hi - lo + 1 != cols.size:
            raise SteinerAxisError(f"row {r} is not a single interval")
        if lo + hi != center2:
            raise SteinerAxisError(f"row {r} is not centered on the axis")
        sections.append(AxisSection(r, lo, hi + 1))
    return sections


def symmetrize_set(domain: GridDomain, mask: np.ndarray) -> np.ndarray:
    """Steiner symmetrization of a cell subset: per row, the same number of
    cells re-centered on the axis.  Preserves measure cell-exactly."""
    sel = domain.subset_cells(mask)  # validates containment
    mask = domain.cells_to_mask(sel)
    out = np.zeros_like(mask)
    for sec in row_sections(domain):
        k = int(mask[sec.row, sec.col_start:sec.col_stop].sum())
        # extra cell to the lower column index on parity mismatch
        start = sec.col_start + (sec.width - k) // 2
        out[sec.row, start:start + k] = True
    return out


def _center_out_order(sec: AxisSection, center2: int) -> np.ndarray:
    cols = np.arange(sec.col_start, sec.col_stop)
    dist2 = np.abs(2 * cols - center2)
    return cols[np.lexsort((cols, dist2))]


def symmetrize_function(domain: GridDomain, f: ScalarField) -> ScalarField:
    """Steiner symmetrization of a field: per row, values sorted descending
    and placed center-outward alternating left-then-right.

    The result is equimeasurable with the input, row-wise unimodal with its
    peak at the axis, and its superlevel sets are the symmetrized
    superlevel sets of the input.
    """
    if f.domain is not domain:
        raise ValueError("field must live on the given domain")
    sections = row_sections(domain)
    center2 = domain.axis.center2
    grid = f.to_grid()
    out = np.empty_like(grid)
    for sec in sections:
        row_vals = grid[sec.row, sec.col_start:sec.col_stop]
        order = _center_out_order(sec, center2)
        out[sec.row, order] = np.sort(row_vals)[::-1]
    return ScalarField(domain, out[domain.cell_rows, domain.cell_cols])


def symmetry_defect(domain: GridDomain, f: ScalarField) -> float:
    """Relative L¹ distance to the Steiner symmetrization,
    ∫|f - f♯| dx / max(∫|f| dx, DEFECT_FLOOR); zero iff f is already
    symmetric (up to the one-cell parity convention)."""
    fs = symmetrize_function(domain, f)
    num = float(np.abs(f.values - fs.values).sum()) * domain.cell_area
    den = max(float(np.abs(f.values).sum()) * domain.cell_area, DEFECT_FLOOR)
    return num / den
