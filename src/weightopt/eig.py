"""Principal positive eigenvalue of -Δu = λ m u with Dirichlet conditions.

The 5-point stiffness matrix A (entries 4 and -1, so that uᵀAu approximates
∫|∇u|² dx) and the diagonal weight matrix M = diag(m h²) form the pencil
A u = λ M u.  A is symmetric positive definite, so 1/λ₁ is the largest
eigenvalue μ of M u = μ A u, which ARPACK's symmetric generalized mode finds
by Lanczos on A⁻¹M in the A inner product (Lehoucq, Sorensen & Yang, *ARPACK
Users' Guide*, SIAM 1998).  A and its sparse LU factorization are built once
per domain and cached on it; each Lanczos step costs one solve with the
factors, and the solver's iteration count is the number of those A-solves.
A cold solve starts from all ones with ARPACK's default 20-vector basis and
runs to machine precision.  A warm solve starts from a nearby eigenfunction
with a ``WARM_NCV``-vector basis and stops once ARPACK's Ritz estimate is
below ``residual_rtol / 100``; in the optimizer, where nearly every solve is
warm, that halves the A-solves.
Pencils of at most ``DENSE_MAX_CELLS`` cells skip ARPACK's per-call overhead
and the LU.  Their domain caches the dense A and W = L⁻¹, where A = LLᵀ, so
each solve whitens the pencil to C = W M Wᵀ and takes C's top eigenpair
(μ, y) from one LAPACK ``dsyevr`` call; u = Wᵀy.  Building W pushes all n
columns through A's Cholesky factor, so a dense solve counts as n A-solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.linalg.lapack import dsyevr
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .grid import GridDomain, ScalarField

EIG_RESIDUAL_RTOL = 1e-8
EIG_MAX_OUTER = 20000
# Pencils of at most this many cells are solved by one dsyevr call on the
# whitened pencil, which skips ARPACK's per-call overhead.  Median time per
# solve on k x k unit-square grids, one BLAS thread (AMD EPYC, 2 shared
# vCPUs), dense vs warm ARPACK, for a swap probe at an optimize_single
# optimum and for a random bang-bang weight after one random swap: 0.04 vs
# 0.36 and 0.21 ms at 36 cells, 0.23 vs 0.30 and 0.53 ms at 121, 0.31 vs 0.31
# and 0.47 ms at 144, 0.64 vs 0.43 and 0.56 ms at 196, 1.22 vs 0.33 and
# 0.22 ms at 256.  The crossover is near 144 cells at an optimum, where the
# optimizer spends its solves, and near 190 cells for random weights; 128
# keeps the dense path on the small side.
DENSE_MAX_CELLS = 128
# Lanczos basis size of a warm-started solve; cold solves keep ARPACK's
# default of 20.  A-solves of optimize_two on the 64-grid unit square, remark
# classes, 8 seeds, by basis size 4/5/6/7/8/10/20: 1378/1365/1390/1396/1380/
# 1532/2772, at the same λ to 1e-15; 6 sits in the middle of the flat stretch.
WARM_NCV = 6
# A computed eigenvector whose most negative entry is at most this many
# machine epsilons times its largest entry counts as positive, and |u| is
# returned.  The far field of a localized eigenfunction can lie below the
# solver's rounding error, which grows with the cell count: -min u / max u of
# correct eigenpairs measured 2.5 ε on 128-cell strips (dense), up to 131 ε on
# the 48- and 64-grid box and the 64-grid disk, 2.7e3 ε on the 96-grid box and
# disk and 1.5e4 ε (3.2e-12) on the 128-grid box (cold Lanczos, random
# bang-bang weights at favourable share 1/10 and 1/6).
SIGN_NOISE_ULPS = 2**16


class WeightNotPositiveAnywhere(ValueError):
    """The weight has no in-domain cell with m > 0, so no positive eigenvalue exists."""


class NoConvergence(RuntimeError):
    """The eigensolver hit its A-solve cap or returned an unacceptable eigenpair."""


@dataclass(frozen=True)
class EigenPair:
    """Converged principal eigenpair.

    The eigenfunction is strictly positive, normalized to uᵀAu = 1, and the
    relative residual ‖Au - λMu‖/‖Au‖, computed here rather than taken from
    ARPACK, is below the solver tolerance.  ``iterations`` is the number of
    solves with the factored A that the Lanczos process used; a dense solve
    of an n-cell pencil counts n.
    """

    lambda1: float
    u: ScalarField
    residual: float
    iterations: int

    def __post_init__(self):
        if self.lambda1 <= 0:
            raise ValueError("principal positive eigenvalue must be positive")
        if self.u.values.min() <= 0:
            raise ValueError("principal eigenfunction must be one-signed (u > 0)")


def assemble_stiffness(domain: GridDomain) -> sparse.csr_matrix:
    """5-point Dirichlet stiffness matrix over the in-domain cells.

    Diagonal 4 and -1 per in-domain neighbor (Dirichlet rows eliminated);
    symmetric positive definite.
    """
    idx = domain.index_map
    n = domain.n_cells
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    data = [np.full(n, 4.0)]
    r, c = domain.cell_rows, domain.cell_cols
    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        nb = idx[r + dr, c + dc]
        has = nb >= 0
        rows.append(idx[r[has], c[has]])
        cols.append(nb[has])
        data.append(np.full(int(has.sum()), -1.0))
    A = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return A.tocsr()


def dominating_shift(A: sparse.csr_matrix, m_diag_bound: float) -> float:
    """1.1 · m_diag_bound / λ_min(A), above ρ(A⁻¹M) for every |M| <= m_diag_bound.

    The Lanczos solver needs no shift, so nothing in weightopt calls this;
    the name stays bound because perfbench's tracer looks it up.
    """
    lam_min = eigsh(A, k=1, sigma=0.0, v0=np.ones(A.shape[0]),
                    return_eigenvectors=False)[0]
    return 1.1 * m_diag_bound / lam_min


def principal_positive_eigenvalue(
    domain: GridDomain,
    m: ScalarField,
    *,
    u0: np.ndarray | None = None,
    residual_rtol: float = EIG_RESIDUAL_RTOL,
    max_outer: int = EIG_MAX_OUTER,
) -> EigenPair:
    """Smallest positive λ of A u = λ M u and its positive eigenfunction.

    Equivalently 1/λ₁ maximizes (uᵀMu)/(uᵀAu) over u ≠ 0.  The returned
    eigenfunction is sign-fixed to be positive and normalized to uᵀAu = 1.
    ``u0`` warm-starts Lanczos from a nearby eigenvector, with a
    ``WARM_NCV``-vector basis and ARPACK stopped at ``residual_rtol / 100``;
    without it the start vector is all ones, so repeated runs give identical
    bits.  Pencils of at most ``DENSE_MAX_CELLS`` cells are solved densely,
    and ignore ``u0``.

    Raises WeightNotPositiveAnywhere when m <= 0 on every cell, and
    NoConvergence when the solve needs more than ``max_outer`` A-solves,
    LAPACK reports a failure, or the eigenpair misses ``residual_rtol`` or is
    not one-signed.  Negative entries within ``SIGN_NOISE_ULPS`` machine
    epsilons of zero, relative to max u, count as rounding noise: the
    returned u is |u|, and the residual is that of |u|.
    """
    if m.domain is not domain:
        raise ValueError("weight must live on the given domain")
    if m.values.max() <= 0.0:
        raise WeightNotPositiveAnywhere("need m > 0 on at least one in-domain cell")
    n = domain.n_cells
    if domain._stiffness is None:
        A = assemble_stiffness(domain)
        if n <= DENSE_MAX_CELLS:
            A = A.toarray()
            W = scipy.linalg.solve_triangular(np.linalg.cholesky(A), np.eye(n), lower=True)
            domain._stiffness = (A, W)
        else:
            # A is SPD: a symmetric fill-reducing order with no pivoting
            # halves the fill of splu's default column order
            domain._stiffness = (A, splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                         diag_pivot_thresh=0.0,
                                         options={"SymmetricMode": True}))
    A, factor = domain._stiffness
    m_diag = m.values * domain.cell_area

    if n <= DENSE_MAX_CELLS:
        # W = L⁻¹ pushed all n columns through A's Cholesky factor: n
        # A-solves, counted against the cap up front
        if max_outer < n:
            raise NoConvergence(f"dense solve needs {n} A-solves, cap is {max_outer}")
        solves = n
        mus, y, _, _, info = dsyevr((factor * m_diag) @ factor.T, range="I", il=n, iu=n)
        if info != 0:
            raise NoConvergence(f"LAPACK dsyevr failed with info = {info}")
        vecs = factor.T @ y
    else:
        solves = 0

        def solve(x: np.ndarray) -> np.ndarray:
            nonlocal solves
            solves += 1
            if solves > max_outer:
                raise NoConvergence(f"no convergence within {max_outer} A-solves")
            return factor.solve(x)

        mus, vecs = eigsh(
            LinearOperator((n, n), matvec=lambda x: m_diag * x, dtype=float),
            k=1, M=A, Minv=LinearOperator((n, n), matvec=solve, dtype=float),
            which="LA", v0=np.ones(n) if u0 is None else u0,
            # a warm start stops at a Ritz estimate 100x tighter than the
            # residual checked below; a cold one runs to machine precision,
            # which keeps the sign of a localized eigenfunction's far field
            ncv=None if u0 is None else WARM_NCV,
            tol=0.0 if u0 is None else residual_rtol / 100,
            maxiter=max_outer, rng=0,  # rng seeds ARPACK's restart vectors
        )
    mu, u = float(mus[0]), vecs[:, 0]

    u = -u if u.sum() < 0 else u
    u_min = float(u.min())
    # negative entries within SIGN_NOISE_ULPS of zero are rounding noise in
    # a positive eigenfunction's far field; a larger one rejects the pair
    sign_changing = -u_min > SIGN_NOISE_ULPS * np.finfo(float).eps * float(u.max())
    u = np.abs(u)
    u = u / np.sqrt(float(u @ (A @ u)))
    Au = A @ u
    resid = float(np.linalg.norm(Au - (1.0 / mu) * (m_diag * u)) / np.linalg.norm(Au))
    if not resid <= residual_rtol or sign_changing or u.min() <= 0:
        raise NoConvergence(f"eigenpair rejected: residual {resid:.3g}, min u {u_min:.3g}")
    return EigenPair(1.0 / mu, ScalarField(domain, u), resid, iterations=solves)
