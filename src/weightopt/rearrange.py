"""Rearrangement calculus over discrete measure spaces.

Implements decreasing rearrangements f*, equimeasurability, the precedence
order g ≺ f (cumulative integrals of g* never exceed those of f*, totals
equal), the constraint class {-p <= f <= q, ∫f = l}, and the
Hardy-Littlewood inequality with its equality-attaining pairing.

All cells have equal area, so a decreasing rearrangement is a step function
whose breakpoints are integer cell counts; profile comparisons are
cell-exact.  Only cumulative-integral comparisons carry a float tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField

# Relative tolerance for integral comparisons (cell sums of <= 1e6 doubles
# keep roundoff well below this).
INTEGRAL_RTOL = 1e-12


class MeasureMismatchError(ValueError):
    """Operands live on measure spaces of different total measure."""


class InfeasibleClassError(ValueError):
    """Constraint constants admit no weight, or no positive weight."""


def _check_same_measure(a_measure: float, b_measure: float) -> None:
    tol = INTEGRAL_RTOL * max(1.0, abs(a_measure), abs(b_measure))
    if abs(a_measure - b_measure) > tol:
        raise MeasureMismatchError(
            f"total measures differ: {a_measure!r} vs {b_measure!r}"
        )


@dataclass(frozen=True)
class StepProfile:
    """Decreasing rearrangement f* as a right-continuous step function.

    ``values[k]`` is taken on the k-th step, whose width is ``counts[k]``
    cells of area ``cell_area``; values strictly decrease and the counts sum
    to the whole measure space.
    """

    values: np.ndarray
    counts: np.ndarray
    cell_area: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if values.ndim != 1 or counts.shape != values.shape or values.size == 0:
            raise ValueError("profile needs matching 1D values and counts")
        if (counts <= 0).any():
            raise ValueError("step widths must be positive cell counts")
        if (np.diff(values) >= 0).any():
            raise ValueError("step values must strictly decrease")
        if self.cell_area <= 0:
            raise ValueError("cell area must be positive")
        values.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)

    @property
    def n_cells(self) -> int:
        return int(self.counts.sum())

    @property
    def total_measure(self) -> float:
        return self.n_cells * self.cell_area

    @property
    def breakpoints(self) -> np.ndarray:
        """Right endpoints of the steps, as measures in (0, |Omega|]."""
        return np.cumsum(self.counts) * self.cell_area

    def total_integral(self) -> float:
        return float(np.dot(self.values, self.counts) * self.cell_area)

    def cumulative(self, t: float | np.ndarray) -> np.ndarray | float:
        """∫_0^t f* ds for t in [0, |Omega|] (piecewise linear in t)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        bp = self.breakpoints
        full = np.concatenate(([0.0], np.cumsum(self.values * self.counts) * self.cell_area))
        k = np.searchsorted(bp, t_arr, side="left")
        k = np.minimum(k, bp.size - 1)
        left = np.concatenate(([0.0], bp))[k]
        out = full[k] + self.values[k] * (t_arr - left)
        return out if np.ndim(t) else float(out[0])

    def cell_values(self) -> np.ndarray:
        """Expand to one value per cell, in decreasing order."""
        return np.repeat(self.values, self.counts)

    def same_as(self, other: "StepProfile") -> bool:
        """Exact equality as step functions on the common measure space."""
        if self.cell_area == other.cell_area:
            return (
                self.values.shape == other.values.shape
                and np.array_equal(self.values, other.values)
                and np.array_equal(self.counts, other.counts)
            )
        # Different discretizations: compare values exactly, breakpoints as
        # measures within the integral tolerance.
        if self.values.shape != other.values.shape:
            return False
        if not np.array_equal(self.values, other.values):
            return False
        tol = INTEGRAL_RTOL * max(1.0, self.total_measure)
        return bool(np.all(np.abs(self.breakpoints - other.breakpoints) <= tol))

    @staticmethod
    def from_cell_values(values: np.ndarray, cell_area: float) -> "StepProfile":
        values = np.sort(np.asarray(values, dtype=float))[::-1]
        if values.size == 0:
            raise ValueError("cannot build a profile on an empty domain")
        change = np.flatnonzero(np.diff(values)) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [values.size]))
        return StepProfile(values[starts], ends - starts, cell_area)


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


def decreasing_rearrangement(f: ScalarField) -> StepProfile:
    """The decreasing rearrangement f* of a field, as a step profile."""
    if f.domain.n_cells == 0:
        raise ValueError("empty domain")
    return StepProfile.from_cell_values(f.values, f.domain.cell_area)


def equimeasurable(f: ScalarField, g: ScalarField) -> bool:
    """Whether f and g are rearrangements of one another (f* = g* exactly)."""
    _check_same_measure(f.domain.total_measure, g.domain.total_measure)
    return decreasing_rearrangement(f).same_as(decreasing_rearrangement(g))


def precedes(g: ScalarField, f: ScalarField) -> bool:
    """g ≺ f: cumulative integrals of g* never exceed those of f*, totals equal.

    Cumulative integrals of step profiles are piecewise linear, so checking
    at the union of both breakpoint sets is exhaustive.
    """
    _check_same_measure(g.domain.total_measure, f.domain.total_measure)
    gp, fp = decreasing_rearrangement(g), decreasing_rearrangement(f)
    total_g = gp.total_integral()
    total_f = fp.total_integral()
    tol = INTEGRAL_RTOL * max(1.0, abs(total_g), abs(total_f))
    if abs(total_g - total_f) > tol:
        return False
    ts = np.union1d(gp.breakpoints, fp.breakpoints)
    cg = np.atleast_1d(gp.cumulative(ts))
    cf = np.atleast_1d(fp.cumulative(ts))
    scale = np.maximum(1.0, np.maximum(np.abs(cg), np.abs(cf)))
    return bool(np.all(cg <= cf + INTEGRAL_RTOL * scale))


def hl_inner(f: ScalarField, g: ScalarField) -> tuple[float, float]:
    """(∫fg dx, ∫ f* g* ds): the Hardy-Littlewood pair (actual, bound)."""
    if f.domain is not g.domain:
        raise ValueError("fields must share a domain")
    area = f.domain.cell_area
    actual = float(np.dot(f.values, g.values) * area)
    fs = np.sort(f.values)[::-1]
    gs = np.sort(g.values)[::-1]
    bound = float(np.dot(fs, gs) * area)
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
    out[order] = np.sort(g.values)[::-1]
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
