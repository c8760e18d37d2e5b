"""Minimization of λ₁(m) over rearrangement classes.

The optimal weight is an increasing function of its own eigenfunction, so
the minimizer is approached by a fixed-point iteration: solve the
eigenproblem, then reassign the generator profile's values to cells ranked
by the eigenfunction (the unique class element comonotone with u, which
maximizes ∫m u² dx by Hardy-Littlewood).  Each step can only lower λ₁, and
the iteration runs over a finite set of arrangements, so it either
stabilizes or cycles; cycles are detected and abort with the best iterate.

Multi-start over random initial arrangements guards against local minima.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eig import (
    EigenPair,
    WeightNotPositiveAnywhere,
    principal_positive_eigenvalue,
)
from .grid import GridDomain, ScalarField
from .rearrange import ResourceClass, StepProfile, comonotone

DESCENT_RTOL = 1e-9
MAX_FIXED_POINT_ITERS = 500
DEFAULT_SEEDS = 8


class InfeasibleClassError(ValueError):
    """Constraint constants admit no weight, or no positive weight."""


class MismatchedClassesError(ValueError):
    """A bang-bang weight was paired with classes it was not built from."""


class DescentError(RuntimeError):
    """The fixed-point iteration increased λ₁ beyond the allowed slack."""


@dataclass(frozen=True)
class BangBangWeight:
    """Three-level optimal weight with nested level sets E ⊆ G.

    Takes ``top`` on E, ``mid`` on G∖E and ``bot`` on Ω∖G (two values when
    E = G).  ``realized_integrals`` are the per-resource integrals actually
    achieved after volume quantization.
    """

    domain: GridDomain
    E: np.ndarray
    G: np.ndarray
    top: float
    mid: float
    bot: float
    realized_integrals: tuple[float, float]

    def __post_init__(self):
        if (self.E & ~self.G).any():
            raise ValueError("E must be contained in G")


@dataclass(frozen=True)
class OptimizeReport:
    """Outcome of one multi-start minimization (best seed's trajectory)."""

    lambda_history: list[float]
    final: EigenPair
    weight: ScalarField
    stabilized: bool
    restarts_used: int

    def __post_init__(self):
        lam = np.asarray(self.lambda_history)
        if lam.size and (np.diff(lam) > DESCENT_RTOL * np.abs(lam[:-1])).any():
            raise ValueError("lambda history is not non-increasing")


def rearrangement_step(m0_profile: StepProfile, u: ScalarField) -> ScalarField:
    """The element of the class of m0 comonotone with u.

    Cells sorted by u descending (ties by cell index ascending) receive the
    profile's values in order; this maximizes ∫ m u² dx over the class and
    is the discrete realization of m̌ = ψ(u_m̌) for an increasing ψ.
    """
    domain = u.domain
    if u.values.min() <= 0:
        raise ValueError("eigenfunction must be positive on the domain")
    if m0_profile.n_cells != domain.n_cells or m0_profile.cell_area != domain.cell_area:
        raise ValueError("profile measure space does not match the domain")
    order = np.argsort(-u.values, kind="stable")
    values = np.empty(domain.n_cells)
    values[order] = m0_profile.cell_values()
    return ScalarField(domain, values)


def _quantize_cells(target_measure: float, cell_area: float, n_cells: int) -> int:
    """Measure -> cell count, rounding half away from zero, clamped to [0, n]."""
    k = int(np.floor(target_measure / cell_area + 0.5))
    return min(max(k, 0), n_cells)


def _profile_from_levels(levels: list[tuple[float, int]], cell_area: float) -> StepProfile:
    """Profile from (value, count) pairs in decreasing value order; drops
    empty steps and merges equal adjacent values."""
    values: list[float] = []
    counts: list[int] = []
    for v, c in levels:
        if c <= 0:
            continue
        if values and v == values[-1]:
            counts[-1] += c
        else:
            values.append(v)
            counts.append(c)
    if not values:
        raise InfeasibleClassError("quantization produced an empty profile")
    return StepProfile(np.array(values), np.array(counts), cell_area)


def random_arrangement(profile: StepProfile, domain: GridDomain,
                       rng: np.random.Generator) -> ScalarField:
    """The profile's values on a uniformly random permutation of the cells."""
    values = np.empty(domain.n_cells)
    values[rng.permutation(domain.n_cells)] = profile.cell_values()
    return ScalarField(domain, values)


def _swap_candidates(m: np.ndarray, u: np.ndarray, levels: np.ndarray,
                     pairs_per_level: int) -> list[tuple[int, int]]:
    """Cell swaps most likely to escape a non-global fixed point.

    For each pair of levels a > b, the weakest a-cells (smallest u) are
    paired with the strongest b-cells (largest u): these are the exchanges
    just beyond what the comonotone ranking already chose.  `pairs_per_level`
    caps the candidates per level pair; deterministic order.
    """
    out: list[tuple[int, int]] = []
    cells_by_level = {}
    for v in levels:
        cells = np.flatnonzero(m == v)
        # sort by u ascending, ties by cell index (stable)
        cells_by_level[v] = cells[np.argsort(u[cells], kind="stable")]
    for ia in range(len(levels)):
        for ib in range(ia + 1, len(levels)):
            a_cells = cells_by_level[levels[ia]]          # u ascending
            b_cells = cells_by_level[levels[ib]][::-1]    # u descending
            k = min(pairs_per_level, a_cells.size, b_cells.size)
            out.extend((int(a_cells[t]), int(b_cells[t])) for t in range(k))
    return out


def _minimize_over_class(
    domain: GridDomain,
    profile: StepProfile,
    seeds: int,
    rng_seed: int,
    eig_kwargs: dict | None = None,
) -> OptimizeReport:
    """Multi-start fixed-point minimization of λ₁ over the class of `profile`.

    Per seed: comonotone fixed-point descent until the arrangement
    stabilizes (or cycles), then a greedy one-swap polish around the best
    iterate; every accepted swap strictly lowers λ₁ and the descent loop
    resumes from it.  Every eigensolve counts against MAX_FIXED_POINT_ITERS.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    if profile.values[0] <= 0:
        raise WeightNotPositiveAnywhere("class contains no weight positive anywhere")
    kwargs = dict(eig_kwargs or {})
    # full one-swap neighborhood on desk-size problems, a rank-nearest
    # shortlist on large grids where each probe costs a full eigensolve
    pairs_per_level = domain.n_cells if domain.n_cells <= 64 else (
        8 if domain.n_cells <= 400 else 2
    )

    def solve(m: ScalarField, u0: np.ndarray | None) -> EigenPair:
        return principal_positive_eigenvalue(domain, m, u0=u0, **kwargs)

    best: tuple[float, EigenPair, ScalarField, list[float], bool] | None = None
    for s in range(seeds):
        rng = np.random.default_rng([rng_seed, s])
        m = random_arrangement(profile, domain, rng)
        history: list[float] = []
        seen: set[bytes] = set()
        stabilized = False
        evals = 0
        pair = solve(m, None)
        evals += 1
        history.append(pair.lambda1)
        seed_best = (pair.lambda1, pair, m)

        while evals < MAX_FIXED_POINT_ITERS:
            # comonotone descent until fixed point or cycle
            while evals < MAX_FIXED_POINT_ITERS:
                seen.add(m.values.tobytes())
                m_next = rearrangement_step(profile, pair.u)
                # Hardy-Littlewood optimality of the step: ∫ m' u² >= ∫ m u²
                u2 = pair.u.values**2
                t_old = float(m.values @ u2) * domain.cell_area
                t_new = float(m_next.values @ u2) * domain.cell_area
                if t_new < t_old - DESCENT_RTOL * max(abs(t_old), abs(t_new)):
                    raise DescentError("rearrangement step decreased ∫ m u² dx")
                if np.array_equal(m_next.values, m.values):
                    stabilized = True
                    break
                if m_next.values.tobytes() in seen:
                    break  # cycle: polish from the best iterate instead
                pair_next = solve(m_next, pair.u.values)
                evals += 1
                lam = pair_next.lambda1
                if lam > history[-1] * (1.0 + DESCENT_RTOL):
                    raise DescentError(
                        f"lambda increased from {history[-1]!r} to {lam!r}"
                    )
                history.append(lam)
                m, pair = m_next, pair_next
                if lam < seed_best[0]:
                    seed_best = (lam, pair, m)

            # greedy one-swap polish around the best arrangement seen; an
            # accepted swap strictly lowers lambda, so revisiting a seen
            # arrangement afterwards is impossible and descent can resume
            lam0, pair0, m0 = seed_best
            accepted = None
            for i, j in _swap_candidates(m0.values, pair0.u.values,
                                         profile.values, pairs_per_level):
                if evals >= MAX_FIXED_POINT_ITERS:
                    break
                trial_values = m0.values.copy()
                trial_values[i], trial_values[j] = trial_values[j], trial_values[i]
                m_trial = ScalarField(domain, trial_values)
                pair_trial = solve(m_trial, pair0.u.values)
                evals += 1
                if pair_trial.lambda1 < lam0 * (1.0 - 1e-12):
                    accepted = (m_trial, pair_trial)
                    break
            if accepted is None:
                break
            m, pair = accepted
            history.append(pair.lambda1)
            seed_best = (pair.lambda1, pair, m)
            stabilized = False  # descent resumes from the swapped arrangement

        lam, pair, m_final = seed_best
        if best is None or lam < best[0]:
            best = (lam, pair, m_final, history, stabilized)

    assert best is not None
    _, pair, m_final, history, stabilized = best
    return OptimizeReport(
        lambda_history=history,
        final=pair,
        weight=m_final,
        stabilized=stabilized,
        restarts_used=seeds,
    )


def single_class_profile(domain: GridDomain, constants: tuple[float, float, float]) -> StepProfile:
    """Quantized bang-bang generator profile for the class
    {-m2 <= m <= m1, ∫m = m3} (values m1 and -m2 on e and |Ω|-e)."""
    m1, m2, m3 = (float(c) for c in constants)
    omega = domain.total_measure
    if m1 <= 0:
        raise InfeasibleClassError("need m1 > 0")
    if not (-m2 * omega < m3 < m1 * omega):
        raise InfeasibleClassError(
            f"infeasible constants: need {-m2 * omega} < m3={m3} < {m1 * omega}"
        )
    e = (m2 * omega + m3) / (m1 + m2)
    n = domain.n_cells
    n_e = _quantize_cells(e, domain.cell_area, n)
    if n_e < 1:
        raise InfeasibleClassError("quantized favourable set is empty")
    return _profile_from_levels([(m1, n_e), (-m2, n - n_e)], domain.cell_area)


def optimize_single(
    domain: GridDomain,
    constants: tuple[float, float, float],
    seeds: int = DEFAULT_SEEDS,
    *,
    rng_seed: int = 0,
    eig_kwargs: dict | None = None,
) -> OptimizeReport:
    """Minimize λ₁ over {-m2 <= m <= m1, ∫m = m3, m > 0 somewhere}.

    The optimum is bang-bang, m1 on a set E of measure (m2|Ω|+m3)/(m1+m2)
    and -m2 elsewhere, reached by the fixed-point iteration from `seeds`
    random starting sets.
    """
    profile = single_class_profile(domain, constants)
    return _minimize_over_class(domain, profile, seeds, rng_seed, eig_kwargs)


def combined_profile(
    domain: GridDomain, class1: ResourceClass, class2: ResourceClass
) -> tuple[StepProfile, float, float, float]:
    """Quantized three-level generator for the sum class, plus (γ, δ, r).

    The Hardy-Littlewood-paired generators stack into the profile
    (q1+q2, r, -(p1+p2)) on measures (γ, δ-γ, |Ω|-δ) with γ = min(e1,e2),
    δ = max(e1,e2) and r = q1-p2, 0 or q2-p1 according to the order of
    e1 and e2.
    """
    omega = domain.total_measure
    for cls in (class1, class2):
        if abs(cls.domain_measure - omega) > 1e-12 * max(1.0, omega):
            raise InfeasibleClassError("resource class measure does not match the domain")
    top = class1.q + class2.q
    bot = -(class1.p + class2.p)
    if top <= 0:
        raise WeightNotPositiveAnywhere("q1 + q2 must be positive")
    e1, e2 = class1.e, class2.e
    gamma, delta = min(e1, e2), max(e1, e2)
    if e1 > e2:
        r = class1.q - class2.p
    elif e1 < e2:
        r = class2.q - class1.p
    else:
        r = 0.0
    n = domain.n_cells
    n_gamma = _quantize_cells(gamma, domain.cell_area, n)
    n_delta = max(_quantize_cells(delta, domain.cell_area, n), n_gamma)
    if n_gamma < 1:
        raise WeightNotPositiveAnywhere(
            "combined weight is never positive after quantization"
        )
    profile = _profile_from_levels(
        [(top, n_gamma), (r, n_delta - n_gamma), (bot, n - n_delta)],
        domain.cell_area,
    )
    return profile, gamma, delta, r


def optimize_two(
    domain: GridDomain,
    class1: ResourceClass,
    class2: ResourceClass,
    seeds: int = DEFAULT_SEEDS,
    *,
    rng_seed: int = 0,
    eig_kwargs: dict | None = None,
) -> tuple[OptimizeReport, BangBangWeight]:
    """Minimize λ₁ over sums f1 + f2 with f_i in two resource classes.

    The sum class is the rearrangement class of the stacked three-level
    generator, so the same fixed-point iteration applies; the optimum has
    nested level sets E ⊆ G carrying (q1+q2, r, -(p1+p2)).
    """
    profile, gamma, delta, r = combined_profile(domain, class1, class2)
    report = _minimize_over_class(domain, profile, seeds, rng_seed, eig_kwargs)

    top = class1.q + class2.q
    bot = -(class1.p + class2.p)
    w = report.weight.values
    E = domain.cells_to_mask(w == top)
    G = domain.cells_to_mask(w > bot)
    n_gamma = int((w == top).sum())
    n_delta = int((w > bot).sum())
    area = domain.cell_area
    omega = domain.total_measure

    def realized(cls: ResourceClass, on_delta: bool) -> float:
        n_top = n_delta if on_delta else n_gamma
        return cls.q * n_top * area - cls.p * (omega - n_top * area)

    l1 = realized(class1, class1.e >= class2.e)
    l2 = realized(class2, class2.e > class1.e)
    bb = BangBangWeight(
        domain=domain, E=E, G=G, top=top, mid=r, bot=bot,
        realized_integrals=(l1, l2),
    )
    return report, bb


def decompose(
    w: BangBangWeight, class1: ResourceClass, class2: ResourceClass
) -> tuple[ScalarField, ScalarField]:
    """Split a two-resource optimum into its per-resource components.

    On E both components sit at their maxima, outside G at their minima; on
    G∖E the resource with the larger level-set measure stays at its maximum
    and the other at its minimum.  The parts sum to the weight cellwise.
    """
    domain = w.domain
    profile, gamma, delta, r = combined_profile(domain, class1, class2)
    expected_top = class1.q + class2.q
    expected_bot = -(class1.p + class2.p)
    if w.top != expected_top or w.bot != expected_bot or (delta > gamma and w.mid != r):
        raise MismatchedClassesError("weight levels do not match the classes")
    sel_E = domain.subset_cells(w.E)
    sel_G = domain.subset_cells(w.G)
    n = domain.n_cells
    n_gamma_expect = _quantize_cells(gamma, domain.cell_area, n)
    n_delta_expect = max(_quantize_cells(delta, domain.cell_area, n), n_gamma_expect)
    if int(sel_E.sum()) != n_gamma_expect or int(sel_G.sum()) != n_delta_expect:
        raise MismatchedClassesError("level-set measures do not match the classes")

    def component(cls: ResourceClass, on_delta: bool) -> ScalarField:
        values = np.full(n, -cls.p)
        values[sel_G if on_delta else sel_E] = cls.q
        return ScalarField(domain, values)

    f1 = component(class1, class1.e >= class2.e)
    f2 = component(class2, class2.e > class1.e)
    return f1, f2


def compare_split_vs_merged(
    domain: GridDomain,
    seeds: int = DEFAULT_SEEDS,
    *,
    rng_seed: int = 0,
    eig_kwargs: dict | None = None,
) -> tuple[OptimizeReport, OptimizeReport]:
    """Two-resource optimum vs the single merged-constraint optimum.

    Resources (0 <= f1 <= 1, ∫f1 = 2|Ω|/3) and (-1 <= f2 <= 0, ∫f2 = -|Ω|/2)
    give a three-level optimum; merging the constraints into
    (-1 <= m <= 1, ∫m = |Ω|/6) enlarges the feasible set, so its optimum is
    strictly better.  Returns the (two_resource, single) reports and checks
    the strict ordering of their λ values.
    """
    if domain.axis is None:
        raise ValueError("comparison domain must carry a symmetry axis")
    omega = domain.total_measure
    cls1 = ResourceClass(p=0.0, q=1.0, l=2.0 * omega / 3.0, domain_measure=omega)
    cls2 = ResourceClass(p=1.0, q=0.0, l=-omega / 2.0, domain_measure=omega)
    report_two, _ = optimize_two(
        domain, cls1, cls2, seeds, rng_seed=rng_seed, eig_kwargs=eig_kwargs
    )
    report_one = optimize_single(
        domain, (1.0, 1.0, omega / 6.0), seeds, rng_seed=rng_seed, eig_kwargs=eig_kwargs
    )
    lam_two = report_two.final.lambda1
    lam_one = report_one.final.lambda1
    if not lam_one < lam_two:
        raise RuntimeError(
            f"expected the merged-constraint optimum to win: {lam_one!r} vs {lam_two!r}"
        )
    return report_two, report_one


def is_fixed_point(weight: ScalarField, u: ScalarField) -> bool:
    """Discrete m̌ = ψ(u_m̌) check: the weight is comonotone with u."""
    return comonotone(u, weight)
