"""Minimization of λ₁(m) over rearrangement classes.

The optimal weight is an increasing function of its own eigenfunction, so
the minimizer is approached by a fixed-point iteration: solve the
eigenproblem, then reassign the generator profile's values to cells ranked
by the eigenfunction (the unique class element comonotone with u, which
maximizes ∫m u² dx by Hardy-Littlewood).  Each step can only lower λ₁, and
the iteration runs over a finite set of arrangements, so it either
stabilizes or cycles.  At a fixed point or a cycle a greedy one-swap polish
around the best iterate looks for a lower λ₁; a descent step and an
accepted swap are the same move of one loop, so descent resumes from it.

Several starts guard against local minima.  Each pairs the profile with
ũ = A⁻¹(w - min w) of a random arrangement w, one A-solve, where a cold
eigensolve of the scattered w would only rank the cells.  A step reads only
the order of u's values, so a start's first moves rank the cells by a few
inverse-iteration steps with the cached factor of A, not by eigensolves.
The λ₁ history begins at the first solved arrangement, and every later move
can only lower it.  The grid's reflections and rotations that map the
domain onto itself leave λ₁ unchanged, so a polish probe that is a mirror
image of the best iterate is not solved, a later start ends once its
start or next iterate is in the mirror orbit of an earlier start's iterate,
and the winner is returned as its mirror image of least bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .eig import (
    EigenPair,
    _factored_stiffness,
    principal_positive_eigenvalue,
    temple_swap_bounds,
)
from .grid import GridDomain, ScalarField, unit_scale
from .rearrange import ResourceClass, hl_pairing, pair_family

DESCENT_RTOL = 1e-9
# λ values closer than this (relative) are a tie: a polish swap must beat it
# to be accepted, and a later seed must beat it to replace the winner, so the
# written arrangement does not hinge on the eigensolver's last bits
LAMBDA_TIE_RTOL = 1e-12
# a level-set size e / h² within this (relative) of a half-integer rounds as
# that half-integer, so its cell count does not follow float noise
LEVEL_HALF_RTOL = 1e-12
MAX_FIXED_POINT_ITERS = 500
# inverse-iteration steps per cheap ranking move of an optimizer start
RANK_SOLVES = 8
DEFAULT_SEEDS = 8


@dataclass(frozen=True)
class OptimizeReport:
    """Outcome of one multi-start minimization (best seed's trajectory)."""

    lambda_history: list[float]
    final: EigenPair
    weight: ScalarField
    stabilized: bool


def rearrangement_step(m0_profile: np.ndarray, u: ScalarField) -> ScalarField:
    """The element of the class of m0 comonotone with u.

    ``m0_profile`` is m0*, one value per cell of u's domain in descending
    order.  Its values are Hardy-Littlewood paired with u (cells ranked
    by u descending, ties by cell index ascending); this maximizes ∫ m u² dx
    over the class and is the discrete realization of m̌ = ψ(u_m̌) for an
    increasing ψ.
    """
    if u.values.min() <= 0:
        raise ValueError("eigenfunction must be positive on the domain")
    return hl_pairing(u, ScalarField(u.domain, m0_profile))


def _class_generators(domain: GridDomain, *classes: ResourceClass) -> list[ScalarField]:
    """Each class's quantized bang-bang generator: q on its first k cells in
    cell order and -p on the rest, k = e / h² rounded half up (within
    LEVEL_HALF_RTOL of a half counts as the half) and clamped to [0, n]."""
    n = domain.n_cells
    out = []
    for cls in classes:
        x = cls.e(domain.total_measure) / domain.cell_area
        k = min(max(int(np.floor(x + 0.5 + LEVEL_HALF_RTOL * abs(x))), 0), n)
        out.append(ScalarField(domain, np.repeat([cls.q, -cls.p], [k, n - k])))
    return out


def _sum_of(fields: list[ScalarField]) -> np.ndarray:
    """Cell-wise f1 + f2 + ...; one field comes back as it is, -0.0 kept."""
    return reduce(np.add, (f.values for f in fields))


def random_arrangement(profile: np.ndarray, domain: GridDomain,
                       rng: np.random.Generator) -> ScalarField:
    """The profile's values on a uniformly random permutation of the cells."""
    values = np.empty(domain.n_cells)
    values[rng.permutation(domain.n_cells)] = profile
    return ScalarField(domain, values)


def _swap_candidates(m: np.ndarray, u: np.ndarray) -> list[tuple[int, int]]:
    """Cell swaps most likely to escape a non-global fixed point.

    For each pair of m's levels a > b, the t-th weakest a-cell (t-th
    smallest u) is paired with the t-th strongest b-cell (t-th largest u),
    for t < min(cap, |a|, |b|): the exchanges just beyond what the
    comonotone ranking already chose, in deterministic order.  The cap on
    an n-cell domain is n up to 64 cells, 8 up to 400 and 2 above.  Each
    probe is first screened by Temple's bound and the mirror-image rule,
    and only one that neither rejects costs an eigensolve.
    """
    n = m.size
    cap = n if n <= 64 else (8 if n <= 400 else 2)
    # the cells of each level, levels descending, each by u ascending and
    # ties by cell index (lexsort is stable)
    order = np.lexsort((u, -m))
    by_m = m[order]
    edges = [0, *(np.flatnonzero(by_m[1:] != by_m[:-1]) + 1).tolist(), n]
    by_level = [order[a:b] for a, b in zip(edges, edges[1:])]
    out: list[tuple[int, int]] = []
    for ia, a_cells in enumerate(by_level):
        for b_cells in by_level[ia + 1:]:
            k = min(cap, a_cells.size, b_cells.size)
            # the t-th weakest a-cell with the t-th strongest b-cell
            out += zip(a_cells[:k].tolist(), b_cells[::-1][:k].tolist())
    return out


def _orbit_key(values: np.ndarray, maps: tuple[np.ndarray, ...]) -> bytes:
    """One key per orbit of arrangements under `maps`, a domain's
    ``mirror_maps``: the smallest of the bytes of the arrangement and its
    mirror images.

    An arrangement that equals one of its own mirror images is keyed by its
    own bytes instead: its eigenfunction has mirror-forced near-ties that
    rounding breaks, so the descents from its mirror images need not agree.
    """
    own = values.tobytes()
    images = [values[p].tobytes() for p in maps]
    return own if own in images else min([own, *images])


def _start(domain: GridDomain, profile: np.ndarray,
           rng: np.random.Generator) -> tuple[ScalarField, np.ndarray | None]:
    """One start's arrangement of `profile` and the u0 to solve it from.

    The start is the profile ranked by ũ = A⁻¹(w - min w) of a random
    arrangement w drawn from `rng`, ties by cell index (ũ need not be
    positive), with A⁻¹ from the domain's cached factor.  Each arrangement is
    scaled by ``grid.unit_scale``, which takes the same power of two for
    every arrangement of the profile.  If ũ > 0, cheap moves follow: each
    takes RANK_SOLVES steps v <- A⁻¹(m ⊙ v) from the last v, each divided by
    max |v|, and ranks the cells by v.  They end at the first ranking that
    repeats, or at a step that leaves a cell of v <= 0: there A⁻¹M's most
    negative eigenvalue outweighs 1/λ₁, so v need not approach u.  The last
    ranking is to be solved warm from u0, the last v that passed, or cold
    where u0 is None.
    """
    solve_a = _factored_stiffness(domain)[2]
    w = unit_scale(random_arrangement(profile, domain, rng).values)[0]
    v = solve_a(w - w.min())
    m = hl_pairing(domain.field(v), domain.field(profile))
    u0, ranked = None, set()
    while (RANK_SOLVES and v.min() > 0 and len(ranked) < MAX_FIXED_POINT_ITERS
           and (key := m.values.tobytes()) not in ranked):
        ranked.add(key)
        w = unit_scale(m.values)[0]
        for _ in range(RANK_SOLVES):
            v = solve_a(w * v)
            v = v / np.abs(v).max()
            if not v.min() > 0:
                break
        else:
            u0, m = v, rearrangement_step(profile, domain.field(v))
    return m, u0


def _polish_round(m0: ScalarField, pair0: EigenPair,
                  cap: int) -> tuple[ScalarField, EigenPair, int] | None:
    """The first of up to `cap` one-swap probes of `m0` that strictly lowers
    λ₁ below pair0's by the tie tolerance, with its pair and the number of
    probes used; None if no probe does.

    Every probe, a ``_swap_candidates`` swap of m0, is first screened: one
    ``temple_swap_bounds`` call bounds all the round's candidates with two
    block solves, against the β that it reads off m0.  A swap whose bound on
    1/λ₁ lies below 1/λ₀ by the tie tolerance cannot lower λ₁; it is
    rejected without an eigensolve but counts as a probe, so the screen
    changes no result.  A probe whose swapped arrangement is a mirror image
    of m0 under one of its domain's ``mirror_maps`` has λ₀ exactly, so it is
    certified the same way.
    """
    mu_cut = (1.0 - LAMBDA_TIE_RTOL) / pair0.lambda1
    swaps = _swap_candidates(m0.values, pair0.u.values)[:cap]
    bounds = temple_swap_bounds(m0, pair0, swaps)
    # the swaps that give a mirror image of m0, which has λ₀
    mirror = {tuple(d.tolist()) for p in m0.domain.mirror_maps
              if (d := np.flatnonzero(m0.values[p] != m0.values)).size == 2}
    for t, ((i, j), bound) in enumerate(zip(swaps, bounds)):
        if bound < mu_cut or (min(i, j), max(i, j)) in mirror:
            continue  # certified: the swap cannot lower λ₁
        values = m0.values.copy()
        values[i], values[j] = values[j], values[i]
        m = ScalarField(m0.domain, values)
        pair = principal_positive_eigenvalue(m0.domain, m, u0=pair0.u.values)
        if pair.lambda1 < pair0.lambda1 * (1.0 - LAMBDA_TIE_RTOL):
            return m, pair, t + 1
    return None


def _minimize_over_class(
    domain: GridDomain,
    profile: np.ndarray,
    seeds: int,
    rng_seed: int,
) -> OptimizeReport:
    """Multi-start fixed-point minimization of λ₁ over the class of `profile`.

    Seed s begins at ``_start`` with the rng stream [rng_seed, s].  The λ₁
    history starts at the start's solve.  Then one loop of moves.  Each pass
    takes the comonotone step from the current eigenfunction.  A new
    arrangement is solved: that is a descent move.  A fixed point or a cycle
    instead runs one ``_polish_round`` around the seed's best iterate, and
    its swap is the move; descent resumes from it.  A round with no such
    swap ends the seed.  Every eigensolve and polish probe counts against
    MAX_FIXED_POINT_ITERS.  Every move is checked: the step must not lower
    ∫ m u² dx, and λ₁ must not rise beyond DESCENT_RTOL.  The start and the
    polish round read what they need, the factor of A and Temple's β, off
    the domain and the weight themselves.

    The domain's ``mirror_maps``, which each domain finds once, also end a
    later seed as soon as its start or next iterate, checked before its
    solve or after its accepted swap, has the ``_orbit_key`` of an earlier
    seed's iterate: from there it would only retrace a descent that did not
    beat the winner, and the tie rule keeps the winner.  The winner's weight
    and eigenfunction come back moved by the map, the identity included,
    that gives the weight of least bytes.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    earlier: set[bytes] = set()  # orbit keys of the earlier seeds' iterates

    best: OptimizeReport | None = None
    for s in range(seeds):
        m, u0 = _start(domain, profile, np.random.default_rng([rng_seed, s]))
        if earlier and _orbit_key(m.values, domain.mirror_maps) in earlier:
            continue
        pair = pair0 = principal_positive_eigenvalue(domain, m, u0=u0)
        m0, evals, history = m, 1, [pair.lambda1]
        seen: set[bytes] = set()
        stabilized = False
        while evals < MAX_FIXED_POINT_ITERS:
            seen.add(m.values.tobytes())
            m_next = rearrangement_step(profile, pair.u)
            # Hardy-Littlewood optimality of the step: ∫ m' u² >= ∫ m u², with
            # both arrangements of the profile scaled by one power of two and
            # the common factor h² left out
            u2 = pair.u.values**2
            t_old, t_new = (float(unit_scale(w.values)[0] @ u2) for w in (m, m_next))
            if t_new < t_old - DESCENT_RTOL * max(abs(t_old), abs(t_new)):
                raise RuntimeError("rearrangement step decreased ∫ m u² dx")
            stabilized = np.array_equal(m_next.values, m.values)
            if not stabilized and m_next.values.tobytes() not in seen:
                if earlier and _orbit_key(m_next.values, domain.mirror_maps) in earlier:
                    break
                m, pair = m_next, principal_positive_eigenvalue(domain, m_next, u0=pair.u.values)
                evals += 1
            elif (move := _polish_round(m0, pair0, MAX_FIXED_POINT_ITERS - evals)) is None:
                break  # fixed point or cycle, and no swap of the best lowers λ₁
            else:
                # an accepted swap strictly lowers λ₁, so it cannot revisit a
                # seen arrangement and descent resumes from it
                (m, pair, probes), stabilized = move, False
                evals += probes
                if earlier and _orbit_key(m.values, domain.mirror_maps) in earlier:
                    break
            if pair.lambda1 > history[-1] * (1.0 + DESCENT_RTOL):
                raise RuntimeError(f"lambda increased from {history[-1]!r} to {pair.lambda1!r}")
            history.append(pair.lambda1)
            if pair.lambda1 < pair0.lambda1:
                m0, pair0 = m, pair

        if best is None or pair0.lambda1 < best.final.lambda1 * (1.0 - LAMBDA_TIE_RTOL):
            best = OptimizeReport(lambda_history=history, final=pair0, weight=m0,
                                  stabilized=stabilized)
        if s + 1 < seeds:
            earlier.update(_orbit_key(np.frombuffer(b), domain.mirror_maps) for b in seen)
    assert best is not None
    # which image of an optimum a descent reached must not decide the result
    w, u = best.weight.values, best.final.u.values
    p = min((np.arange(w.size), *domain.mirror_maps), key=lambda p: w[p].tobytes())
    return replace(best, weight=ScalarField(domain, w[p]),
                   final=replace(best.final, u=ScalarField(domain, u[p])))


def single_class(constants: tuple[float, float, float]) -> ResourceClass:
    """The class {-m2 <= m <= m1, ∫m = m3}, from (m1, m2, m3)."""
    m1, m2, m3 = (float(c) for c in constants)
    return ResourceClass(p=m2, q=m1, l=m3)


def combined_profile(domain: GridDomain, *classes: ResourceClass) -> np.ndarray:
    """Quantized generator profile of the sum class of one or more classes.

    The profile is the cell-wise sum of the classes' generators: one value
    per cell, descending and read-only.  Each generator is descending in
    cell order, so they are comonotone and their sum is descending as it
    stands: they stack into nested level sets.  For one class the profile
    is its own generator (q on e, -p elsewhere), for two the levels are
    (q1+q2, the larger-measure resource's maximum plus the other's minimum,
    -(p1+p2)).  A level set that rounds to no cell drops its level.
    Raises ValueError unless the profile's top level is positive.
    """
    profile = ScalarField(domain, _sum_of(_class_generators(domain, *classes))).values
    if profile[0] <= 0:
        raise ValueError("the classes' quantized sum is never positive")
    return profile


def optimize_single(
    domain: GridDomain,
    constants: tuple[float, float, float],
    seeds: int,
    *,
    rng_seed: int = 0,
) -> OptimizeReport:
    """Minimize λ₁ over {-m2 <= m <= m1, ∫m = m3, m > 0 somewhere}.

    The optimum is bang-bang, m1 on a set E of measure (m2|Ω|+m3)/(m1+m2)
    and -m2 elsewhere, reached by the fixed-point iteration from `seeds`
    smoothed random starting sets.
    """
    profile = combined_profile(domain, single_class(constants))
    return _minimize_over_class(domain, profile, seeds, rng_seed)


def optimize_two(
    domain: GridDomain,
    class1: ResourceClass,
    class2: ResourceClass,
    seeds: int,
    *,
    rng_seed: int = 0,
) -> OptimizeReport:
    """Minimize λ₁ over sums f1 + f2 with f_i in two resource classes.

    The sum class is the rearrangement class of the stacked three-level
    generator, so the same fixed-point iteration applies; the optimum has
    nested level sets E ⊆ G, and `decompose` splits it into its two parts.
    """
    profile = combined_profile(domain, class1, class2)
    return _minimize_over_class(domain, profile, seeds, rng_seed)


def decompose(weight: ScalarField, *classes: ResourceClass) -> list[ScalarField]:
    """Split a weight of the sum class into one part per class.

    Every class's generator is Hardy-Littlewood paired with the weight, so
    all parts sit at their maxima where the weight takes its top level and
    at their minima where it takes its bottom level; a part is at its
    maximum on a larger set the larger its class's level-set measure.
    Raises ValueError unless the parts sum to the weight exactly.
    """
    _, *parts = pair_family([weight, *_class_generators(weight.domain, *classes)])
    if not np.array_equal(_sum_of(parts), weight.values):
        raise ValueError("the classes' parts do not sum to the weight")
    return parts


def compare_split_vs_merged(
    domain: GridDomain,
    seeds: int,
    *,
    rng_seed: int = 0,
) -> tuple[OptimizeReport, OptimizeReport]:
    """Two-resource optimum vs the single merged-constraint optimum.

    Resources (0 <= f1 <= 1, ∫f1 = 2|Ω|/3) and (-1 <= f2 <= 0, ∫f2 = -|Ω|/2)
    give a three-level optimum; merging the constraints into
    (-1 <= m <= 1, ∫m = |Ω|/6) enlarges the feasible set, so in the
    continuum its optimum is strictly better.  Returns the (two_resource,
    single) reports and checks the strict ordering of their λ values, which
    coarse grids can break.
    """
    if domain.axis is None:
        raise ValueError("comparison domain must carry a symmetry axis")
    omega = domain.total_measure
    cls1 = ResourceClass(p=0.0, q=1.0, l=2.0 * omega / 3.0)
    cls2 = ResourceClass(p=1.0, q=0.0, l=-omega / 2.0)
    report_two = optimize_two(domain, cls1, cls2, seeds, rng_seed=rng_seed)
    report_one = optimize_single(domain, (1.0, 1.0, omega / 6.0), seeds, rng_seed=rng_seed)
    lam_two = report_two.final.lambda1
    lam_one = report_one.final.lambda1
    if not lam_one < lam_two:
        raise RuntimeError(
            f"expected the merged-constraint optimum to win: {lam_one!r} vs {lam_two!r}"
        )
    return report_two, report_one
