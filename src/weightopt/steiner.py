"""Discrete Steiner symmetrization across the domain's vertical axis.

Sets are symmetrized row by row: the k in-domain cells of a row are
replaced by k cells centered on the axis.  Functions are symmetrized by
sorting each row's values and placing them center-outward, alternating
left-then-right, which makes every superlevel set of the result the
symmetrized superlevel set of the input.  One stable sort of all cells by
(row, value descending) does every row at once.

When exact centering is impossible (row width and cell count of opposite
parity) the extra cell always goes to the lower column index; the same
rule in both the set and function operations is what keeps superlevel
consistency cell-exact.

Both need a Steiner-symmetric domain.  ``GridDomain`` checks that once,
at construction, and sets ``axis`` only then; here a missing axis raises
ValueError.
"""

from __future__ import annotations

import numpy as np

from .grid import GridDomain, ScalarField, unit_scale

DEFECT_FLOOR = 1e-30     # denominator floor of symmetry_defect for f = 0


def _center2(domain: GridDomain) -> int:
    if domain.axis is None:
        raise ValueError("domain is not Steiner-symmetric about its vertical center line")
    return domain.axis


def symmetrize_set(domain: GridDomain, mask: np.ndarray) -> np.ndarray:
    """Steiner symmetrization of a cell subset: per row, the same number of
    cells re-centered on the axis.  Preserves measure cell-exactly."""
    sel = domain.subset_cells(mask)  # validates containment
    rows = domain.cell_rows
    k = np.bincount(rows[sel], minlength=domain.shape[0])[rows]  # the row's count per cell
    # keep the k cells at 2c - center2 in [-k, k): centered, and on a parity
    # mismatch the extra cell is the one at the lower column index
    d = 2 * domain.cell_cols - _center2(domain)
    return domain.cells_to_mask((-k <= d) & (d < k))


def symmetrize_function(f: ScalarField) -> ScalarField:
    """Steiner symmetrization of a field: per row, values sorted descending
    and placed center-outward alternating left-then-right.

    The result is equimeasurable with the input, row-wise unimodal with its
    peak at the axis, and its superlevel sets are the symmetrized
    superlevel sets of the input.  Equal values, +0.0 and -0.0 among them,
    keep their column order: the leftmost goes nearest the axis.
    """
    domain = f.domain
    center2 = _center2(domain)
    rows, cols = domain.cell_rows, domain.cell_cols
    # one stable sort of all cells by (row, value descending), scattered
    # into the cells ordered by (row, distance to the axis, column)
    source = np.lexsort((-f.values, rows))
    target = np.lexsort((cols, np.abs(2 * cols - center2), rows))
    out = np.empty(domain.n_cells)
    out[target] = f.values[source]
    return ScalarField(domain, out)


def symmetry_defect(f: ScalarField) -> float:
    """Relative L¹ distance to the Steiner symmetrization,
    ∫|f - f♯| dx / ∫|f| dx, and 0 for f = 0; zero iff f is already
    symmetric (up to the one-cell parity convention).

    The cell area cancels, so the ratio is taken of sums over the cells;
    it does not change when f is scaled either, so the sums are of f and
    f♯ scaled by ``grid.unit_scale``, which cannot overflow: f♯ permutes
    f's values, so both take one power of two.  ``DEFECT_FLOOR`` floors the
    denominator, which only f = 0 reaches.
    """
    (g, _), (gs, _) = unit_scale(f.values), unit_scale(symmetrize_function(f).values)
    return float(np.abs(g - gs).sum()) / max(float(np.abs(g).sum()), DEFECT_FLOOR)
