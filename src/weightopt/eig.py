"""Principal positive eigenvalue of -Δu = λ m u with Dirichlet conditions.

The 5-point stiffness matrix A (entries 4 and -1, so that uᵀAu approximates
∫|∇u|² dx) and the diagonal weight matrix M = diag(m h²) form the pencil
A u = λ M u.  A is symmetric positive definite, so 1/λ₁ is the largest
eigenvalue μ of M u = μ A u, which ARPACK's symmetric generalized mode finds
by Lanczos on A⁻¹M in the A inner product (Lehoucq, Sorensen & Yang, *ARPACK
Users' Guide*, SIAM 1998).  A and its sparse LU factorization are built once
per domain and cached on it; each Lanczos step costs one solve with the
factors, and the solver's iteration count is the number of those A-solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .grid import GridDomain, ScalarField

EIG_RESIDUAL_RTOL = 1e-8
EIG_MAX_OUTER = 20000


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
    solves with the factored A that the Lanczos process used.
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
    ``u0`` warm-starts Lanczos from a nearby eigenvector; without it the
    start vector is all ones, so repeated runs give identical bits.

    Raises WeightNotPositiveAnywhere when m <= 0 on every cell, and
    NoConvergence when the solve needs more than ``max_outer`` A-solves or
    its eigenpair misses ``residual_rtol`` or is not one-signed.
    """
    if m.domain is not domain:
        raise ValueError("weight must live on the given domain")
    if m.values.max() <= 0.0:
        raise WeightNotPositiveAnywhere("need m > 0 on at least one in-domain cell")
    if domain._stiffness is None:
        # A is SPD: a symmetric fill-reducing order with no pivoting halves
        # the fill of splu's default column order
        A = assemble_stiffness(domain)
        domain._stiffness = (A, splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                     diag_pivot_thresh=0.0, options={"SymmetricMode": True}))
    A, lu = domain._stiffness
    n = domain.n_cells
    m_diag = m.values * domain.cell_area

    solves = 0
    if n == 1:
        # ARPACK needs k < n; a 1x1 pencil is its own eigenpair
        mu, u = float(m_diag[0] / A[0, 0]), np.ones(1)
    else:
        def solve(x: np.ndarray) -> np.ndarray:
            nonlocal solves
            solves += 1
            if solves > max_outer:
                raise NoConvergence(f"no convergence within {max_outer} A-solves")
            return lu.solve(x)

        mus, vecs = eigsh(
            LinearOperator((n, n), matvec=lambda x: m_diag * x, dtype=float),
            k=1, M=A, Minv=LinearOperator((n, n), matvec=solve, dtype=float),
            which="LA", v0=np.ones(n) if u0 is None else u0,
            maxiter=max_outer, rng=0,  # rng seeds ARPACK's restart vectors
        )
        mu, u = float(mus[0]), vecs[:, 0]

    u = -u if u.sum() < 0 else u
    u = u / np.sqrt(float(u @ (A @ u)))
    Au = A @ u
    resid = float(np.linalg.norm(Au - (1.0 / mu) * (m_diag * u)) / np.linalg.norm(Au))
    if not resid <= residual_rtol or u.min() <= 0:
        raise NoConvergence(f"eigenpair rejected: residual {resid:.3g}, min u {u.min():.3g}")
    return EigenPair(1.0 / mu, ScalarField(domain, u), resid, iterations=solves)


def rayleigh(u: ScalarField, m: ScalarField, A: sparse.csr_matrix) -> float:
    """(uᵀMu)/(uᵀAu); equals 1/λ₁ at the converged eigenpair."""
    if u.domain is not m.domain:
        raise ValueError("fields must share a domain")
    v = u.values
    vAv = float(v @ (A @ v))
    if vAv == 0.0:
        raise ValueError("u must be nonzero")
    m_diag = m.values * u.domain.cell_area
    return float(v @ (m_diag * v)) / vAv
