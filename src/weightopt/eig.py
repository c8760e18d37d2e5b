"""Principal positive eigenvalue of -Δu = λ m u with Dirichlet conditions.

The 5-point stiffness matrix A (entries 4 and -1, so that uᵀAu approximates
∫|∇u|² dx) and the diagonal weight matrix M = diag(m h²) form the pencil
A u = λ M u.  A is symmetric positive definite, so 1/λ₁ is the largest
eigenvalue μ of M u = μ A u, that is of A⁻¹M.  With A = RᵀR, A⁻¹M =
R⁻¹(R⁻ᵀMR⁻¹)R is similar to a symmetric matrix: its spectrum is real, and
ARPACK's standard (Arnoldi) mode on the single operator x ↦ A⁻¹(m h² ⊙ x)
builds the same Krylov spaces as Lanczos in the A inner product (Lehoucq,
Sorensen & Yang, *ARPACK Users' Guide*, SIAM 1998), at one A-solve and no
product with A per step.  A depends on the mask alone (h enters only
through M), so A and its solver are kept for the last mask factored, keyed
by its shape and bytes: every domain with an equal mask, at any h, takes
them instead of factoring again.  The entry refers to no domain, and it is
dropped before a different mask is factored, so at most one factor is
alive.  Each Krylov step costs one A-solve, and the solver's iteration
count is the number of those A-solves.  A is built in canonical CSR form
directly, and ARPACK's reverse-communication loop calls the operator as it
is, without LinearOperator's per-call checks.  ARPACK runs on m h² divided
by the power of two 2^e that brings max |m h²| into [1/2, 1)
(``grid.unit_scale``), and μ is multiplied back by 2^e: the scaling is
exact, so any weight whose λ₁ and μ = 1/λ₁ are finite doubles solves, and
a weight times 2^k gives the same eigenvector bits.  A⁻¹M is not normal,
so the Ritz value is only first-order accurate in the Ritz vector v; μ is
the pencil's Rayleigh quotient vᵀMv / vᵀAv instead, whose error is of
second order.
A warm solve starts from a nearby eigenfunction with a ``WARM_NCV``-vector
basis and stops once ARPACK's Ritz estimate is below
``EIG_RESIDUAL_RTOL / 1000``: that estimate bounds another norm than the
checked residual ‖Au - λMu‖/‖Au‖.  In optimizer runs the factor 1000 keeps
the checked residuals within 1/55 of the bound, 1/28 without the starts'
ranking moves; a stop at 100 reads the same bits with the moves and 1/15
without them.  A warm start halves the A-solves.  Without ``u0``, a solve
starts warm from v = A⁻¹(m h² ⊙ A⁻¹1), one inverse-iteration step from the
torsion function, if v > 0 on every cell (residuals within 1/30 of the
bound on random weights up to n = 256): a constant weight takes 9 to 12
A-solves, the step's 2 included, instead of 21.  A cell of v <= 0 means
that A⁻¹M's negative end outweighs μ₁, as on a scattered small favourable
share; the solve then runs cold, from all ones with ARPACK's default
20-vector basis to machine precision, with the bits of a solve without v.

The cache entry is one of three kinds.  Pencils of at most
``DENSE_MAX_CELLS`` cells skip ARPACK's per-call overhead: their entry
holds the dense A and W = L⁻¹, where A = LLᵀ, so each solve whitens the
pencil to C = W M Wᵀ and takes C's top eigenpair (μ, y) from one LAPACK
``dsyevr`` call; u = Wᵀy.  Building W pushes all n columns through A's
Cholesky factor, so a dense solve counts as n A-solves.  Above that size, a
mask whose cells fill their bounding box needs no sparse factorization:
there A = T_y ⊗ I + I ⊗ T_x with T = tridiag(-1, 2, -1), and the symmetric
orthogonal sine (DST-I) matrix Q_jk = √(2/(s+1)) sin(jkπ/(s+1)) of the
shorter side, s cells long, diagonalizes its T with eigenvalues
λ_j = 2 - 2cos(jπ/(s+1)) (fast diagonalization: Lynch, Rice & Thomas,
*Numer. Math.* 6 (1964) 185-199).  In Q's basis A splits into s
tridiagonal systems T + λ_j I along the longer side, L cells long, which
LAPACK's ``dpttrf`` factors once per mask as one block-diagonal LDLᵀ.  An
A-solve is then two s x s matmuls and one ``dpttrs`` call: O(n s) time and
O(s² + n) memory on any rectangle, a 3 x 20000 strip included.  Every
other mask is factored once by SuperLU.

A solve returns (1/μ, |u|) for the computed eigenvector u, and accepts it
under one rule: μ is a positive finite double, |u| > 0 on every cell, and
|u|, normalized, meets ``EIG_RESIDUAL_RTOL``, the one residual bound
weightopt checks.  Neither u's sign nor ARPACK's Ritz value is read.  The
rule accepts the principal pair only: it is the one positive pair with a
one-signed eigenfunction (Perron-Frobenius for the irreducible M-matrix A;
P. Hess & T. Kato, *Comm. PDE* 5 (1980) 999-1030), and the |u| of any
other eigenvector misses the eigen-equation.
For the 5-point A, Kato's inequality (T. Kato, *Israel J. Math.* 13 (1972)
135-148) holds cell by cell, A|u| <= sign(u) ⊙ Au, with a deficit of
2Σ|u_j| over the neighbours j of opposite sign, and that deficit is the
residual of |u| when Au = λMu.  It follows the gap to λ₁: on two 6 x 6
blocks joined by a one-cell neck, the relative gap g between λ₁ and λ₂ and
the residual of |u₂| read 5.6e-7 and 1.2e-3 at neck 10, and 4.3e-10 and
3.4e-5 at neck 16, about 1.65√g.  So u₂ passes only where λ₂ = λ₁ to
rounding, as at neck 48 (g = 3.6e-16), where |u| of any mix of u₁ and u₂
is an eigenvector of that λ to rounding.  Far-field entries of a localized
eigenfunction that rounding makes negative move the residual of |u| by
about their own size, so they need no allowance.

The optimizer screens each polish swap, on every pencil size, before solving
for it.  From the current eigenpair (u, 1/μ₀), ``temple_swap_bounds`` takes
one inverse-iteration step v = μ₀u + A⁻¹Du, D = M′ - M, per swap and bounds
the swapped pencil's top μ by Temple's inequality μ₁ <= ρ + η²/(ρ - β)
(G. Temple, 1928; B. N. Parlett, *The Symmetric Eigenvalue Problem*, SIAM
1998, §10), where ρ is v's Rayleigh quotient and η its A-norm residual.  A
whole polish round costs two block solves with the cached factor, one
column per swap: W-products on dense pencils, one multi-column sine-basis
or SuperLU solve above ``DENSE_MAX_CELLS``.
The screen takes β = max(m) h² / λ₂(A_R) from m itself, with
``second_mu_bound``, at no cost.  A swap keeps max(m), so M′ <= max(m) h² I,
and Courant-Fischer gives μ₂ <= max(m) h² / λ₂(A); A is a principal
submatrix of the 5-point matrix A_R of the domain's bounding rectangle, so
Cauchy interlacing gives λ₂(A) >= λ₂(A_R), which is known in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.linalg.lapack import dpttrf, dpttrs, dsyevr
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs, eigsh, splu

from .grid import GridDomain, ScalarField, unit_scale

EIG_RESIDUAL_RTOL = 1e-8
EIG_MAX_OUTER = 20000
# Pencils of at most this many cells are solved by one dsyevr call on the
# whitened pencil, which skips ARPACK's per-call overhead.  Median time per
# warm solve on k x k unit-square grids, one BLAS thread (Intel Xeon, 2
# shared vCPUs; medians move by up to 2x between runs), dense vs ARPACK's
# standard mode on the sine-basis solve, for a swap probe at an
# optimize_single optimum and for a random bang-bang weight after one random
# swap: 0.08 vs 0.37 and 0.08 vs 0.55 ms at 36 cells, 0.30 vs 0.51 and 0.34
# vs 0.60 ms at 100, 0.84 vs 0.77 and 0.52 vs 0.58 ms at 121, 0.63 vs 0.37
# and 1.13 vs 0.96 ms at 144, 2.1 vs 0.64 and 2.1 vs 0.89 ms at 196.  The
# crossover is near 121 cells at an optimum, where the optimizer spends its
# solves, and between 144 and 169 cells for random weights; 128 sits at the
# first.
DENSE_MAX_CELLS = 128
# Krylov basis size of a warm-started solve; cold solves keep ARPACK's
# default of 20.  A-solves of optimize_two on the 64-grid unit square, remark
# classes, 8 seeds, by basis size 4/5/6/7/8/10/20: 933/918/899/968/936/956/
# 1596, at the same λ to 2e-15; 6 sits in the middle of the flat stretch.
WARM_NCV = 6


class NoConvergence(RuntimeError):
    """The eigensolver hit its A-solve cap or returned an unacceptable eigenpair."""


@dataclass(frozen=True)
class EigenPair:
    """Converged principal eigenpair.

    The eigenfunction is strictly positive, normalized to uᵀAu = 1, and the
    relative residual ‖Au - λMu‖/‖Au‖, computed here rather than taken from
    ARPACK, is below the solver tolerance.  ``iterations`` is the number of
    A-solves that the Lanczos process used, with the 2 of the torsion step
    of a solve without ``u0``; a dense solve of an n-cell pencil counts n.
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
    symmetric positive definite.  Built in canonical CSR form directly: in
    row-major cell order a cell's up, left, own, right and down neighbors
    have increasing indices, so each row's columns come out sorted.
    """
    idx = domain.index_map
    r, c = domain.cell_rows, domain.cell_cols
    cols = np.stack([idx[r - 1, c], idx[r, c - 1], idx[r, c], idx[r, c + 1], idx[r + 1, c]],
                    axis=1)
    has = cols >= 0
    data = np.broadcast_to([-1.0, -1.0, 4.0, -1.0, -1.0], cols.shape)[has]
    indptr = np.concatenate([[0], np.cumsum(has.sum(axis=1))])
    n = domain.n_cells
    return sparse.csr_matrix((data, cols[has], indptr), shape=(n, n))


def dominating_shift(A: sparse.csr_matrix, m_diag_bound: float) -> float:
    """1.1 · m_diag_bound / λ_min(A), above ρ(A⁻¹M) for every |M| <= m_diag_bound.

    The Lanczos solver needs no shift, so nothing in weightopt calls this;
    the name stays bound because perfbench's tracer looks it up.
    """
    lam_min = eigsh(A, k=1, sigma=0.0, v0=np.ones(A.shape[0]),
                    return_eigenvectors=False)[0]
    return 1.1 * m_diag_bound / lam_min


# (mask shape, mask bytes) and (A, W, x -> A⁻¹x) of the last mask factored;
# the entry refers to no domain
_LAST = (None, None)


def _factored_stiffness(domain: GridDomain):
    """The cached (A, W, x -> A⁻¹x) of the domain's mask, one of three kinds:
    (dense A, L⁻¹ with A = LLᵀ, Wᵀ(Wx)) up to ``DENSE_MAX_CELLS`` cells;
    above, (sparse A, None, the sine-basis solve) when the cells fill their
    bounding box, else (sparse A, None, splu(A).solve).  The solve takes one
    vector or a block of columns."""
    global _LAST
    key = (domain.mask.shape, domain.mask.tobytes())
    if _LAST[0] != key:
        _LAST = (None, None)  # free the last factor before building one
        _LAST = key, _factor(domain)
    return _LAST[1]


def _factor(domain: GridDomain):
    n = domain.n_cells
    A = assemble_stiffness(domain)
    # A's graph is the stencil's: k components make A k diagonal blocks, so no u > 0 exists
    components = connected_components(A, directed=False, return_labels=False)
    if components != 1:
        raise ValueError(f"in-domain cells are not one 4-connected set: {components} components")
    if n <= DENSE_MAX_CELLS:
        A = A.toarray()
        W = scipy.linalg.solve_triangular(np.linalg.cholesky(A), np.eye(n), lower=True)
        return A, W, lambda x: W.T @ (W @ x)
    ny, nx = domain.bounding_box
    if n == ny * nx:
        return A, None, _sine_solver(ny, nx)
    # A is SPD: a symmetric fill-reducing order with no pivoting halves the
    # fill of splu's default column order; A is symmetric, so its transpose,
    # a CSC view of the same arrays, is A itself
    lu = splu(A.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    return A, None, lu.solve


def _sine_solver(ny: int, nx: int):
    """x -> A⁻¹x on a full ny x nx rectangle of cells in row-major order,
    for one vector or a block of columns: Q of the shorter side, one
    tridiagonal solve per mode along the longer side, Q again."""
    flip = nx < ny  # the shorter side is read first, the longer one last
    s, L = (nx, ny) if flip else (ny, nx)
    j = np.arange(1, s + 1)
    q = np.sqrt(2.0 / (s + 1)) * np.sin(np.outer(j, j) * (np.pi / (s + 1)))
    # the s systems T + λ_j I as one tridiagonal matrix, uncoupled between modes
    d = np.repeat(4.0 - 2.0 * np.cos(j * (np.pi / (s + 1))), L)
    e = np.full(s * L - 1, -1.0)
    e[L - 1::L] = 0.0
    d, e, _ = dpttrf(d, e)

    def solve(b):
        B = b.T.reshape(-1, ny, nx)
        B = B.transpose(0, 2, 1) if flip else B
        y, _ = dpttrs(d, e, (q @ B).reshape(-1, s * L).T)
        X = q @ y.T.reshape(-1, s, L)
        X = X.transpose(0, 2, 1) if flip else X
        return X.reshape(b.shape[::-1]).T

    return solve


class _Raw(LinearOperator):
    """n x n operator whose ``matvec`` is the given callable itself, so
    ARPACK's reverse-communication loop calls it without LinearOperator's
    per-call shape checks and reshapes.  The Lanczos path wraps
    x ↦ A⁻¹(m h² ⊙ x) in it, one A-solve per call."""

    def __init__(self, n: int, matvec):
        super().__init__(float, (n, n))
        self.matvec = matvec

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)


def principal_positive_eigenvalue(
    domain: GridDomain,
    m: ScalarField,
    *,
    u0: np.ndarray | None = None,
) -> EigenPair:
    """Smallest positive λ of A u = λ M u and its positive eigenfunction.

    Equivalently 1/λ₁ maximizes (uᵀMu)/(uᵀAu) over u ≠ 0.  The returned
    eigenfunction is |u| of the computed eigenvector u, normalized to
    uᵀAu = 1.  Above ``DENSE_MAX_CELLS`` cells ARPACK's standard mode finds
    the top eigenvector of A⁻¹M, and μ = 1/λ₁ is its Rayleigh quotient
    uᵀMu / uᵀAu; ARPACK's Ritz value is not read.
    ``u0`` warm-starts ARPACK from a nearby eigenvector, with a
    ``WARM_NCV``-vector basis and ARPACK stopped at
    ``EIG_RESIDUAL_RTOL / 1000``; without it, the same from
    v = A⁻¹(m h² ⊙ A⁻¹1) if v > 0, else cold from all ones (see the module
    docstring), so repeated runs give identical bits.  Pencils of at most
    ``DENSE_MAX_CELLS`` cells are solved densely, and ignore ``u0``.

    Raises ValueError when m h² overflows on some cell, m h² <= 0 on every
    cell or the in-domain cells are not one 4-connected set, and
    NoConvergence when an ARPACK solve needs more than ``EIG_MAX_OUTER``
    A-solves (read at call time), LAPACK or ARPACK reports a failure, μ or
    λ₁ = 1/μ is not a finite double, or the pair (1/μ, |u|) is rejected:
    |u| vanishes on some cell or misses ``EIG_RESIDUAL_RTOL``, which the |u|
    of a sign-changing u does (see the module docstring).
    """
    if m.domain is not domain:
        raise ValueError("weight must live on the given domain")
    if not float(np.abs(m.values).max()) * domain.cell_area < np.inf:
        raise ValueError("m h² overflows a double on some cell")
    m_diag = m.values * domain.cell_area
    if m_diag.max() <= 0.0:
        raise ValueError("need m h² > 0 on at least one in-domain cell")
    n = domain.n_cells
    A, W, solve_a = _factored_stiffness(domain)

    if W is not None:
        # W = L⁻¹ pushed all n columns through A's Cholesky factor: n A-solves
        solves = n
        mus, y, _, _, info = dsyevr((W * m_diag) @ W.T, range="I", il=n, iu=n)
        if info != 0:
            raise NoConvergence(f"LAPACK dsyevr failed with info = {info}")
        mu, u = float(mus[0]), (W.T @ y)[:, 0]
    else:
        solves = 0

        def solve(x: np.ndarray) -> np.ndarray:
            nonlocal solves
            solves += 1
            if solves > EIG_MAX_OUTER:
                raise NoConvergence(f"no convergence within {EIG_MAX_OUTER} A-solves")
            return solve_a(x)

        m_scaled, e = unit_scale(m_diag)
        if u0 is None:
            # one inverse-iteration step from the torsion function A⁻¹1
            v = solve(m_scaled * solve(np.ones(n)))
            u0 = v if v.min() > 0 else None
        try:
            _, vecs = eigs(
                _Raw(n, lambda x: solve(m_scaled * x)), k=1, which="LR",
                v0=np.ones(n) if u0 is None else u0,
                # a warm start stops at a Ritz estimate 1000x tighter than the
                # residual checked below; a cold one runs to machine precision
                ncv=None if u0 is None else WARM_NCV,
                tol=0.0 if u0 is None else EIG_RESIDUAL_RTOL / 1000,
                maxiter=EIG_MAX_OUTER, rng=0,  # rng seeds ARPACK's restart vectors
            )
        except ArpackError as exc:
            raise NoConvergence(str(exc)) from exc
        # A⁻¹M is not normal, so its Ritz value is only first-order accurate;
        # the pencil's Rayleigh quotient of the Ritz vector is second-order
        u = vecs[:, 0].real
        mu = float(u @ (m_scaled * u)) / float(u @ (A @ u))
        with np.errstate(over="ignore"):  # 2^e μ overflows to inf, rejected below
            mu = float(np.ldexp(mu, e))
    if mu == np.inf:  # also dsyevr's μ when the whitened pencil overflows
        raise NoConvergence("μ = 1/λ₁ overflows a double: the weight m h² is too large")
    if not (mu > 0.0 and 1.0 / mu < np.inf):
        raise NoConvergence(f"λ₁ = 1/μ is not a finite double for μ = {mu:.3g}")

    # |u| is an eigenvector only if u is one-signed (see the module docstring)
    u = np.abs(u)
    u = u / np.sqrt(float(u @ (A @ u)))
    Au = A @ u
    resid = float(np.linalg.norm(Au - (1.0 / mu) * (m_diag * u)) / np.linalg.norm(Au))
    if not resid <= EIG_RESIDUAL_RTOL or u.min() <= 0:
        raise NoConvergence(f"eigenpair rejected: residual {resid:.3g}, min |u| {u.min():.3g}")
    return EigenPair(1.0 / mu, ScalarField(domain, u), resid, iterations=solves)


def second_mu_bound(domain: GridDomain, m_max: float) -> float:
    """β >= μ₂ of M u = μ A u for every weight on the domain with max m <= m_max.

    M <= m_max h² I, so Courant-Fischer gives μ₂ <= m_max h² / λ₂(A) for
    m_max > 0.  A is a principal submatrix of the 5-point matrix A_R of the
    smallest rectangle of nx x ny cells that holds the domain, so Cauchy
    interlacing gives λ₂(A) >= λ₂(A_R).  A_R's eigenvalues are
    4 - 2cos(πp/(nx+1)) - 2cos(πq/(ny+1)); the smaller of the (2, 1) and
    (1, 2) values is at most λ₂(A_R), also when a side is one cell.
    """
    ny, nx = domain.bounding_box
    cx, cy = np.cos(np.pi / (nx + 1)), np.cos(np.pi / (ny + 1))
    lam2 = 4.0 - 2.0 * max(np.cos(2 * np.pi / (nx + 1)) + cy, cx + np.cos(2 * np.pi / (ny + 1)))
    return m_max * domain.cell_area / lam2


def temple_swap_bounds(m: ScalarField, pair: EigenPair,
                       swaps: list[tuple[int, int]]) -> np.ndarray:
    """Upper bounds on μ₁ = 1/λ₁ of the weight m with cells i and j swapped,
    one per (i, j) in ``swaps``.

    ``pair`` is m's principal eigenpair (u, 1/μ₀).  A swap keeps max m, so
    β = ``second_mu_bound`` of m's domain and max m bounds μ₂ of every
    swapped pencil M′.  Each trial vector is one inverse-iteration step
    from u, v = μ₀u + A⁻¹Du ≈ A⁻¹M′u with D = M′ - M; with
    ρ = vᵀM′v / vᵀAv and η² = rᵀAr / vᵀAv for the residual
    r = A⁻¹M′v - ρv, Temple's inequality bounds μ₁ <= ρ + η²/(ρ - β) when
    ρ > β, and the bound is inf when ρ <= β.  The whole list costs two block
    solves with the cached solver of A, one column per swap, and none when
    μ₀ <= β: every bound is then inf, as a finite one would exceed β >= μ₀.

    As in the Lanczos path, m h², μ₀ and β are divided by the power of two
    2^e that brings max |m h²| into [1/2, 1), and the bounds multiplied
    back: the scaling is exact, so the bounds' bits do not depend on it,
    and no product overflows for constants near the largest double.
    """
    domain = m.domain
    beta = second_mu_bound(domain, float(m.values.max()))
    if not 1.0 / pair.lambda1 > beta:
        return np.full(len(swaps), np.inf)
    A, _, solve = _factored_stiffness(domain)
    i, j = np.array(swaps, dtype=np.intp).reshape(-1, 2).T
    cols = np.arange(i.size)
    w, e = unit_scale(m.values * domain.cell_area)
    beta = np.ldexp(beta, -e)
    u = pair.u.values
    du = np.zeros((domain.n_cells, i.size))
    du[i, cols] = (w[j] - w[i]) * u[i]
    du[j, cols] = (w[i] - w[j]) * u[j]
    v = u[:, None] / np.ldexp(pair.lambda1, e) + solve(du)
    v_a = np.einsum("ij,ij->j", v, A @ v)
    m_v = w[:, None] * v
    m_v[i, cols] = w[j] * v[i, cols]
    m_v[j, cols] = w[i] * v[j, cols]
    rho = np.einsum("ij,ij->j", v, m_v) / v_a
    bounds = np.full(i.size, np.inf)
    ok = rho > beta
    r = solve(m_v[:, ok]) - rho[ok] * v[:, ok]
    eta2 = np.einsum("ij,ij->j", r, A @ r) / v_a[ok]
    bounds[ok] = rho[ok] + eta2 / (rho[ok] - beta)
    return np.ldexp(bounds, e)
