"""Self-check suites: rearrangement, precedence, descent, symmetry, oracles.

Each suite runs randomized checks of the library's mathematical invariants
and returns ``{check name: passed}``; a check passes if it held in every
trial.  The small-domain suite cross-checks the iterative machinery against
independent dense/brute-force computations: the Hardy-Littlewood bound
against the maximum over explicit permutations, the cumulative-integral
formula against the supremum over subsets, and the fixed-point optimizer
against exhaustive enumeration of bang-bang sets with a dense symmetric
eigensolver.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg

from .eig import assemble_stiffness
from .grid import GridDomain, ScalarField, from_mask, make_rectangle
from .optimize import (DESCENT_RTOL, combined_profile, is_fixed_point, optimize_single,
                       single_class)
from .rearrange import (
    decreasing_rearrangement,
    equimeasurable,
    hl_inner,
    hl_pairing,
    pair_family,
    precedes,
)
from .steiner import symmetrize_function, symmetrize_set


def _random_field(domain: GridDomain, rng: np.random.Generator) -> ScalarField:
    # dyadic rationals keep cumulative sums exact in floating point
    return domain.field(rng.integers(-16, 17, domain.n_cells) / 8.0)


def _every_trial(trial, trials: int) -> dict[str, bool]:
    """Run `trial` `trials` times; each of its checks passes if it held in
    every run.  Zero trials report no check."""
    passed: dict[str, bool] = {}
    for _ in range(trials):
        for name, holds in trial().items():
            passed[name] = passed.get(name, True) & holds
    return passed


def check_hardy_littlewood(domain: GridDomain, rng: np.random.Generator,
                           trials: int = 200) -> dict[str, bool]:
    def trial() -> dict[str, bool]:
        f = _random_field(domain, rng)
        g = _random_field(domain, rng)
        actual, bound = hl_inner(f, g)
        tol = 1e-12 * max(1.0, abs(bound))
        paired, _ = hl_inner(f, hl_pairing(f, g))
        h = _random_field(domain, rng)
        family = pair_family([f, g, h])
        total = domain.field(sum(x.values for x in family))
        by_parts = sum(decreasing_rearrangement(x) for x in (f, g, h))
        return {
            "hl_inequality": actual <= bound + tol,
            "hl_pairing_equality": abs(paired - bound) <= tol,
            "pair_family_sum_profile": (
                np.array_equal(decreasing_rearrangement(total), by_parts)
                and all(equimeasurable(a, b) for a, b in zip(family, (f, g, h)))),
        }
    return _every_trial(trial, trials)


def check_precedence(domain: GridDomain, rng: np.random.Generator,
                     trials: int = 200) -> dict[str, bool]:
    def trial() -> dict[str, bool]:
        f = _random_field(domain, rng)
        g = _random_field(domain, rng)
        c = domain.constant_field(f.integral() / domain.total_measure)
        mutual = precedes(g, f) and precedes(f, g)
        # permutations are equimeasurable; monotone transforms preserve that
        perm = domain.field(rng.permutation(f.values))
        return {
            "precedes_reflexive": precedes(f, f),
            "precedes_mean_constant": precedes(c, f),
            "precedes_antisymmetry_up_to_equimeasurability": (
                (not mutual or equimeasurable(f, g))
                and precedes(perm, f) and precedes(f, perm) and equimeasurable(f, perm)),
            "equimeasurable_under_transforms": all(
                equimeasurable(domain.field(F(f.values)), domain.field(F(perm.values)))
                for F in (lambda t: t * t, lambda t: np.maximum(t, 0.0))),
        }
    return _every_trial(trial, trials)


def check_descent(domain: GridDomain, constants: tuple[float, float, float],
                  rng_seed: int = 0, seeds: int = 3) -> dict[str, bool]:
    report = optimize_single(domain, constants, seeds=seeds, rng_seed=rng_seed)
    lam = np.asarray(report.lambda_history)
    profile = combined_profile(domain, single_class(constants))
    return {
        "descent_lambda_history": bool((np.diff(lam) <= DESCENT_RTOL * np.abs(lam[:-1])).all()),
        "descent_fixed_point_comonotone": is_fixed_point(report.weight, report.final.u),
        "descent_class_preserved": np.array_equal(decreasing_rearrangement(report.weight),
                                                  profile),
    }


def check_steiner(domain: GridDomain, rng: np.random.Generator,
                  trials: int = 200) -> dict[str, bool]:
    def trial() -> dict[str, bool]:
        f = _random_field(domain, rng)
        fs = symmetrize_function(f)

        t = float(rng.choice(f.values))
        sub = domain.cells_to_mask(f.values > t)
        sub_s = symmetrize_set(domain, sub)
        psi = lambda t: 3.0 * t + 0.5
        u = domain.field(np.abs(_random_field(domain, rng).values))
        mpos = domain.field(np.abs(_random_field(domain, rng).values))
        us = symmetrize_function(u)
        ms = symmetrize_function(mpos)
        before = float(mpos.values @ u.values**2)
        after = float(ms.values @ us.values**2)
        return {
            "steiner_measure_preserved": int(sub_s.sum()) == int(sub.sum()),
            "steiner_equimeasurable": np.array_equal(np.sort(f.values), np.sort(fs.values)),
            "steiner_idempotent": np.array_equal(symmetrize_function(fs).values,
                                                 fs.values),
            "steiner_superlevel_consistency": np.array_equal(
                domain.cells_to_mask(fs.values > t), sub_s),
            "steiner_monotone_transform_commutes": np.array_equal(
                symmetrize_function(domain.field(psi(f.values))).values,
                psi(fs.values)),
            "steiner_hardy_littlewood": before <= after + 1e-12 * max(1.0, abs(after)),
        }
    return _every_trial(trial, trials)


def dense_lambda1(domain: GridDomain, m: ScalarField) -> float:
    """Independent dense route to λ₁: smallest positive eigenvalue of the
    pencil via LAPACK's generalized symmetric sygvd (M u = μ A u, λ = 1/μ),
    a route that principal_positive_eigenvalue does not take."""
    A = assemble_stiffness(domain).toarray()
    M = np.diag(m.values * domain.cell_area)
    mu = scipy.linalg.eigh(M, A, eigvals_only=True)
    mu_max = mu[-1]
    if mu_max <= 0:
        raise ValueError("weight admits no positive eigenvalue")
    return 1.0 / mu_max


def _batch_lambda1(A_dense: np.ndarray, m_values: np.ndarray, cell_area: float) -> np.ndarray:
    """λ₁ for a batch of weights on one small domain (rows of m_values).

    Whitens the pencil with one Cholesky factor of A and runs a batched
    symmetric eigensolve.  principal_positive_eigenvalue whitens small
    pencils the same way, so dense_lambda1 is the route independent of it.
    """
    L = np.linalg.cholesky(A_dense)
    Linv = scipy.linalg.solve_triangular(L, np.eye(L.shape[0]), lower=True)
    # S_k = L^-1 diag(m_k h^2) L^-T, batched over k
    scaled = m_values[:, None, :] * cell_area
    S = (Linv[None, :, :] * scaled) @ Linv.T[None, :, :]
    mu = np.linalg.eigvalsh(S)[:, -1]
    out = np.full(mu.shape, np.inf)
    pos = mu > 0
    out[pos] = 1.0 / mu[pos]
    return out


def enumerate_bang_bang_minimum(
    domain: GridDomain, m1: float, m2: float, n_top: int
) -> tuple[float, np.ndarray]:
    """Global minimum of λ₁ over all arrangements m1 on n_top cells, -m2
    elsewhere, by exhaustive enumeration with the dense eigensolver."""
    n = domain.n_cells
    combos = list(itertools.combinations(range(n), n_top))
    weights = np.full((len(combos), n), -m2, dtype=float)
    for k, combo in enumerate(combos):
        weights[k, list(combo)] = m1
    A_dense = assemble_stiffness(domain).toarray()
    lams = _batch_lambda1(A_dense, weights, domain.cell_area)
    k_best = int(np.argmin(lams))
    return float(lams[k_best]), weights[k_best]


def random_connected_mask(rng: np.random.Generator, n_cells: int,
                          grid: int = 7) -> np.ndarray:
    """Random connected cell set grown by a neighbor-attaching walk."""
    mask = np.zeros((grid, grid), dtype=bool)
    r = c = grid // 2
    mask[r, c] = True
    frontier = [(r, c)]
    while mask.sum() < n_cells:
        r, c = frontier[rng.integers(len(frontier))]
        dr, dc = ((1, 0), (-1, 0), (0, 1), (0, -1))[rng.integers(4)]
        nr, nc = r + dr, c + dc
        if 1 <= nr < grid - 1 and 1 <= nc < grid - 1:
            if not mask[nr, nc]:
                mask[nr, nc] = True
                frontier.append((nr, nc))
    return mask


def check_small_domain_oracles(rng: np.random.Generator,
                               trials: int = 20) -> dict[str, bool]:
    def pairing_trial() -> dict[str, bool]:
        # Hardy-Littlewood bound == max over all pairings (<= 7 cells)
        dom = from_mask(random_connected_mask(rng, int(rng.integers(3, 8))), 1.0)
        f = _random_field(dom, rng)
        g = _random_field(dom, rng)
        _, bound = hl_inner(f, g)
        brute = max(
            float(np.dot(f.values, np.asarray(p)) * dom.cell_area)
            for p in itertools.permutations(g.values)
        )

        # sup over subsets of measure t of ∫_A f equals ∫_0^t f*
        n = dom.n_cells
        t_cells = int(rng.integers(1, n + 1))
        sup = max(
            float(sum(f.values[list(combo)]) * dom.cell_area)
            for combo in itertools.combinations(range(n), t_cells)
        )
        expect = float(decreasing_rearrangement(f)[:t_cells].sum() * dom.cell_area)
        return {
            "oracle_hl_bound_vs_permutations": abs(bound - brute) <= 1e-12 * max(1.0, abs(brute)),
            "oracle_subset_supremum": abs(sup - expect) <= 1e-12 * max(1.0, abs(expect)),
        }

    def optimum_trial() -> dict[str, bool]:
        # fixed-point optimizer attains the enumerated global minimum (<= 12 cells)
        n_cells = int(rng.integers(6, 13))
        dom = from_mask(random_connected_mask(rng, n_cells), 0.5)
        m1, m2 = 1.0, 1.0
        n_top = int(rng.integers(1, n_cells))
        m3 = (m1 + m2) * n_top * dom.cell_area - m2 * dom.total_measure
        lam_brute, _ = enumerate_bang_bang_minimum(dom, m1, m2, n_top)
        report = optimize_single(dom, (m1, m2, m3), seeds=20, rng_seed=int(rng.integers(2**31)))
        lam_opt_dense = dense_lambda1(dom, report.weight)
        return {"oracle_optimizer_vs_enumeration": lam_opt_dense <= lam_brute * (1.0 + 1e-12)}

    return {**_every_trial(pairing_trial, trials), **_every_trial(optimum_trial, trials)}


def run_all(domain: GridDomain | None = None, rng_seed: int = 0,
            trials: int = 100) -> dict[str, bool]:
    """Run every suite (on a default small rectangle when no domain given);
    returns ``{check name: passed}`` in suite order.  The Steiner suite runs
    only on a domain with a Steiner axis."""
    rng = np.random.default_rng(rng_seed)
    if domain is None:
        domain = make_rectangle(12, 9, 0.25)
    small = make_rectangle(6, 5, 0.5)
    return {
        **check_hardy_littlewood(domain, rng, trials),
        **check_precedence(domain, rng, trials),
        **(check_steiner(domain, rng, trials) if domain.axis is not None else {}),
        **check_descent(small, (1.0, 1.0, small.total_measure / 6.0), rng_seed),
        **check_small_domain_oracles(rng, trials=max(4, trials // 10)),
    }
