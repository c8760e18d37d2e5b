"""Rearrangement calculus over discrete measure spaces.

Implements decreasing rearrangements f*, equimeasurability, the precedence
order g ≺ f (cumulative integrals of g* never exceed those of f*, totals
equal), the constraint class {-p <= f <= q, ∫f = l}, and the
Hardy-Littlewood inequality with its equality-attaining pairing.

All cells have equal area, so f* is f's cell values sorted in descending
order, one entry per cell: a read-only array, not a step-function object.
Two fields compare only if they share a domain (ValueError otherwise),
where profile comparisons are cell-exact; only cumulative-integral
comparisons carry a float tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField

# Relative tolerance for integral comparisons (cell sums of <= 1e6 doubles
# keep roundoff well below this).
INTEGRAL_RTOL = 1e-12


def _check_same_domain(f: ScalarField, g: ScalarField) -> None:
    if f.domain is not g.domain:
        raise ValueError("fields must share a domain")


@dataclass(frozen=True)
class ResourceClass:
    """Constants of the constraint class F = {-p <= f <= q, ∫f = l}; the
    measure |Omega| of the space the class is posed on is passed to :meth:`e`."""

    p: float
    q: float
    l: float

    def e(self, omega: float) -> float:
        """Measure e = (p|Omega| + l)/(p + q) of the bang-bang generator's
        upper level set on a space of measure |Omega| = ``omega``.

        Feasibility must be strict (-p|Omega| < l < q|Omega|), which makes e
        land strictly inside (0, |Omega|); ValueError otherwise, and
        when p + q <= 0 or a constant times |Omega| overflows a double.
        """
        if self.p + self.q <= 0:
            raise ValueError("need p + q > 0 for a non-degenerate class")
        e = (self.p * omega + self.l) / (self.p + self.q)
        if not np.isfinite([self.p * omega, self.q * omega, self.p + self.q, e]).all():
            raise ValueError(
                f"constants overflow a double: p={self.p!r}, q={self.q!r}, l={self.l!r} "
                f"on measure {omega!r}"
            )
        if not (-self.p * omega < self.l < self.q * omega):
            raise ValueError(
                f"infeasible constants: need {-self.p * omega} < l={self.l} < {self.q * omega}"
            )
        return e


def decreasing_rearrangement(f: ScalarField) -> np.ndarray:
    """The decreasing rearrangement f*: f's cell values in descending order,
    one per cell, read-only."""
    profile = np.sort(f.values)[::-1]
    profile.setflags(write=False)
    return profile


def equimeasurable(f: ScalarField, g: ScalarField) -> bool:
    """Whether f and g are rearrangements of one another (f* = g* exactly)."""
    _check_same_domain(f, g)
    return np.array_equal(decreasing_rearrangement(f), decreasing_rearrangement(g))


def precedes(g: ScalarField, f: ScalarField) -> bool:
    """g ≺ f: cumulative integrals of g* never exceed those of f*, totals equal.

    The cumulative integrals are piecewise linear with knots at the cell
    boundaries, so checking them there is exhaustive.
    """
    _check_same_domain(g, f)
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
    _check_same_domain(f, g)
    area = f.domain.cell_area
    actual = float(np.dot(f.values, g.values) * area)
    bound = float(np.dot(decreasing_rearrangement(f), decreasing_rearrangement(g)) * area)
    return actual, bound


def _descending_order(values: np.ndarray) -> np.ndarray:
    """Cell indices sorted by value descending, ties by cell index ascending."""
    return np.argsort(-values, kind="stable")


def _paired(f: ScalarField, g: ScalarField, order: np.ndarray) -> ScalarField:
    """g's values in descending order placed on the cells in `order`, f's
    ``_descending_order``."""
    _check_same_domain(f, g)
    out = np.empty_like(g.values)
    out[order] = decreasing_rearrangement(g)
    return ScalarField(g.domain, out)


def hl_pairing(f: ScalarField, g: ScalarField) -> ScalarField:
    """Rearrangement g̃ ~ g attaining equality in the Hardy-Littlewood bound.

    Cells are ranked by f descending (ties by cell index ascending) and
    receive g's values in descending order, making g̃ comonotone with f.
    """
    return _paired(f, g, _descending_order(f.values))


def pair_family(fields: list[ScalarField]) -> list[ScalarField]:
    """Rearrange a family so every pair attains Hardy-Littlewood equality.

    Every field is Hardy-Littlewood paired with the first, so all outputs
    share its cell order (value descending, ties by cell index ascending),
    are mutually comonotone, and the profile of the sum equals the sum of
    the profiles.  The first field is returned unchanged.  Its cells are
    ranked once for the whole family.
    """
    if not fields:
        raise ValueError("need at least one field")
    order = _descending_order(fields[0].values)
    return [_paired(fields[0], f, order) for f in fields]


def comonotone(f: ScalarField | np.ndarray, g: ScalarField | np.ndarray) -> bool:
    """Whether f_i > f_j implies g_i >= g_j for every pair of cells.

    This is the discrete equality case of Hardy-Littlewood: g is an
    increasing function of f up to ties.
    """
    fv = f.values if isinstance(f, ScalarField) else np.asarray(f, dtype=float)
    gv = g.values if isinstance(g, ScalarField) else np.asarray(g, dtype=float)
    if fv.shape != gv.shape:
        raise ValueError("mismatched shapes")
    # cells by f descending, ties by g descending: g may never rise
    g_sorted = gv[np.lexsort((-gv, -fv))]
    return bool(np.all(g_sorted[1:] <= g_sorted[:-1]))
