"""Rearrangement calculus over discrete measure spaces.

Implements decreasing rearrangements f*, equimeasurability, the precedence
order g ≺ f (cumulative integrals of g* never exceed those of f*, totals
equal), the constraint class {-p <= f <= q, ∫f = l}, and the
Hardy-Littlewood inequality with its equality-attaining pairing.

All cells have equal area, so f* is f's cell values sorted in descending
order, one entry per cell: a read-only array, not a step-function object.
Fields compare only on one measure space (the same cell count and cell
area), where profile comparisons are cell-exact; only cumulative-integral
comparisons carry a float tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField

# Relative tolerance for integral comparisons (cell sums of <= 1e6 doubles
# keep roundoff well below this).
INTEGRAL_RTOL = 1e-12


class MeasureMismatchError(ValueError):
    """Operands live on different measure spaces (cell count or cell area)."""


class InfeasibleClassError(ValueError):
    """Constraint constants admit no weight, or no positive weight."""


def _check_same_space(f: ScalarField, g: ScalarField) -> None:
    a, b = f.domain, g.domain
    if a.n_cells != b.n_cells or a.cell_area != b.cell_area:
        raise MeasureMismatchError(
            f"measure spaces differ: {a.n_cells} cells of area {a.cell_area!r} vs "
            f"{b.n_cells} cells of area {b.cell_area!r}"
        )


@dataclass(frozen=True)
class ResourceClass:
    """Constraint class F = {-p <= f <= q, ∫f = l} on a space of measure |Omega|.

    Feasibility must be strict (-p|Omega| < l < q|Omega|), which makes the
    level-set measure e = (p|Omega| + l)/(p + q) land strictly inside
    (0, |Omega|).
    """

    p: float
    q: float
    l: float
    domain_measure: float

    def __post_init__(self):
        if self.domain_measure <= 0:
            raise InfeasibleClassError("domain measure must be positive")
        if self.p + self.q <= 0:
            raise InfeasibleClassError("need p + q > 0 for a non-degenerate class")
        if not (-self.p * self.domain_measure < self.l < self.q * self.domain_measure):
            raise InfeasibleClassError(
                f"infeasible constants: need {-self.p * self.domain_measure} < l="
                f"{self.l} < {self.q * self.domain_measure}"
            )

    @property
    def e(self) -> float:
        """Measure of the upper level set of the bang-bang generator."""
        return (self.p * self.domain_measure + self.l) / (self.p + self.q)


def decreasing_rearrangement(f: ScalarField) -> np.ndarray:
    """The decreasing rearrangement f*: f's cell values in descending order,
    one per cell, read-only."""
    profile = np.sort(f.values)[::-1]
    profile.setflags(write=False)
    return profile


def equimeasurable(f: ScalarField, g: ScalarField) -> bool:
    """Whether f and g are rearrangements of one another (f* = g* exactly)."""
    _check_same_space(f, g)
    return np.array_equal(decreasing_rearrangement(f), decreasing_rearrangement(g))


def precedes(g: ScalarField, f: ScalarField) -> bool:
    """g ≺ f: cumulative integrals of g* never exceed those of f*, totals equal.

    The cumulative integrals are piecewise linear with knots at the cell
    boundaries, so checking them there is exhaustive.
    """
    _check_same_space(g, f)
    area = f.domain.cell_area
    cg = np.cumsum(decreasing_rearrangement(g)) * area
    cf = np.cumsum(decreasing_rearrangement(f)) * area
    tol = INTEGRAL_RTOL * max(1.0, abs(cg[-1]), abs(cf[-1]))
    if abs(cg[-1] - cf[-1]) > tol:
        return False
    scale = np.maximum(1.0, np.maximum(np.abs(cg), np.abs(cf)))
    return bool(np.all(cg <= cf + INTEGRAL_RTOL * scale))


def hl_inner(f: ScalarField, g: ScalarField) -> tuple[float, float]:
    """(∫fg dx, ∫ f* g* ds): the Hardy-Littlewood pair (actual, bound)."""
    if f.domain is not g.domain:
        raise ValueError("fields must share a domain")
    area = f.domain.cell_area
    actual = float(np.dot(f.values, g.values) * area)
    bound = float(np.dot(decreasing_rearrangement(f), decreasing_rearrangement(g)) * area)
    return actual, bound


def _descending_order(values: np.ndarray) -> np.ndarray:
    """Cell indices sorted by value descending, ties by cell index ascending."""
    return np.argsort(-values, kind="stable")


def hl_pairing(f: ScalarField, g: ScalarField) -> ScalarField:
    """Rearrangement g̃ ~ g attaining equality in the Hardy-Littlewood bound.

    Cells are ranked by f descending (ties by cell index ascending) and
    receive g's values in descending order, making g̃ comonotone with f.
    """
    if f.domain is not g.domain:
        raise ValueError("fields must share a domain")
    order = _descending_order(f.values)
    out = np.empty_like(g.values)
    out[order] = decreasing_rearrangement(g)
    return ScalarField(g.domain, out)


def pair_family(fields: list[ScalarField]) -> list[ScalarField]:
    """Rearrange a family so every pair attains Hardy-Littlewood equality.

    Every field is Hardy-Littlewood paired with the first, so all outputs
    share its cell order (value descending, ties by cell index ascending),
    are mutually comonotone, and the profile of the sum equals the sum of
    the profiles.  The first field is returned unchanged.
    """
    if not fields:
        raise ValueError("need at least one field")
    return [hl_pairing(fields[0], f) for f in fields]


def comonotone(f: ScalarField | np.ndarray, g: ScalarField | np.ndarray) -> bool:
    """Whether f_i > f_j implies g_i >= g_j for every pair of cells.

    This is the discrete equality case of Hardy-Littlewood: g is an
    increasing function of f up to ties.
    """
    fv = f.values if isinstance(f, ScalarField) else np.asarray(f, dtype=float)
    gv = g.values if isinstance(g, ScalarField) else np.asarray(g, dtype=float)
    if fv.shape != gv.shape:
        raise ValueError("mismatched shapes")
    order = _descending_order(fv)
    f_sorted, g_sorted = fv[order], gv[order]
    if f_sorted.size == 0:
        return True
    starts = np.flatnonzero(np.r_[True, f_sorted[1:] != f_sorted[:-1]])
    # no block of equal f may reach above the smallest g of a larger f
    block_max = np.maximum.reduceat(g_sorted, starts)
    prior_min = np.minimum.accumulate(np.minimum.reduceat(g_sorted, starts))
    return bool(np.all(block_max[1:] <= prior_min[:-1]))
