import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigs, splu

import weightopt.cli
import weightopt.eig
import weightopt.optimize
from weightopt.eig import (
    DENSE_MAX_CELLS,
    EIG_RESIDUAL_RTOL,
    WARM_NCV,
    EigenPair,
    NoConvergence,
    assemble_stiffness,
    principal_positive_eigenvalue,
    second_mu_bound,
    temple_swap_bounds,
)
from weightopt.grid import from_mask, make_box, make_ellipse, make_rectangle
from weightopt.io import domain_from_config, write_field_csv, write_pgm
from weightopt.optimize import (
    LAMBDA_TIE_RTOL,
    _swap_candidates,
    combined_profile,
    optimize_single,
    optimize_two,
    random_arrangement,
    rearrangement_step,
    single_class,
)
from weightopt.steiner import symmetrize_function
from weightopt.verify import _batch_lambda1, dense_lambda1, random_connected_mask

from conftest import SPLIT_MASKS, coo_stiffness, dumbbell, remark_classes, rng_field


def batch_lambda1(dom, m):
    """λ₁ by numpy Cholesky whitening and eigvalsh.  The production dense
    path whitens the same way, so dense_lambda1 (generalized sygvd) is the
    route independent of it; this one checks the whitening against it."""
    return float(_batch_lambda1(dom, m.values[None, :])[0])


def return_vector(monkeypatch, dom, u, mu=None):
    """Make the eigensolver of dom's path return u as its eigenvector and,
    when given, mu as its eigenvalue.  Only the dense path reads mu: the
    Lanczos path takes μ from u's Rayleigh quotient."""
    if dom.n_cells <= DENSE_MAX_CELLS:
        # the dense path returns Wᵀy with W = L⁻¹, so y = Lᵀu gives u back
        name, vec = "dsyevr", np.linalg.cholesky(assemble_stiffness(dom).toarray()).T @ u
    else:
        name, vec = "eigs", u
    real = getattr(weightopt.eig, name)

    def solver(*args, **kwargs):
        out = real(*args, **kwargs)
        return (out[0] if mu is None else np.array([mu]), vec[:, None], *out[2:])

    monkeypatch.setattr(weightopt.eig, name, solver)


def first_cells(n_cells, width=12):
    """Domain made of the first n_cells cells of a width-wide grid, row by row."""
    rows = -(-n_cells // width)
    mask = np.arange(rows * width).reshape(rows, width) < n_cells
    return from_mask(mask, 1.0 / (width + 1))


@pytest.fixture
def rect_above_dense():
    """Smallest 10-row rectangle that the Lanczos path solves."""
    return make_rectangle(DENSE_MAX_CELLS // 10 + 1, 10, 0.5)


@pytest.fixture
def ragged_above_dense():
    """Smallest 12-wide mask that the Lanczos path solves: its last row is
    short, so the cells do not fill their bounding box and A is factored by
    SuperLU."""
    return first_cells(DENSE_MAX_CELLS + 1)


@pytest.fixture
def sym_disk_above_dense():
    """The 193-cell disk of `--grid 16` that the symmetrize tests solve."""
    return make_ellipse(17, 17, 1 / 16, (0.5, 0.5))


@pytest.fixture
def dumbbell_above_dense():
    """Two 10 x 10 blocks joined by a 16-cell neck, solved by the Lanczos
    path: λ₂ of the constant weight lies 5.6e-11 above λ₁."""
    return from_mask(dumbbell(10, 16), 0.1)


class TestAssembly:
    def test_single_interior_cell(self):
        dom = from_mask(np.array([[True]]), 1.0)
        A = assemble_stiffness(dom)
        assert A.shape == (1, 1)
        assert A.toarray()[0, 0] == 4.0

    def test_two_cell_row(self):
        dom = from_mask(np.array([[True, True]]), 1.0)
        A = assemble_stiffness(dom).toarray()
        assert np.array_equal(A, [[4.0, -1.0], [-1.0, 4.0]])

    def test_symmetric_and_spd(self):
        dom = make_rectangle(6, 5, 0.5)
        A = assemble_stiffness(dom)
        assert (A != A.T).nnz == 0
        evals = np.linalg.eigvalsh(A.toarray())
        assert evals.min() > 0

    def test_energy_matches_gradient_quadrature(self):
        # u^T A u equals the summed squared differences across cell faces
        # (Dirichlet zeros outside), i.e. the discrete Dirichlet energy
        dom = make_rectangle(5, 4, 0.25)
        rng = np.random.default_rng(0)
        u = rng.normal(size=dom.n_cells)
        A = assemble_stiffness(dom)
        grid = np.nan_to_num(dom.field(u).to_grid())
        energy = 0.0
        for axis in (0, 1):
            d = np.diff(grid, axis=axis)
            energy += (d * d).sum()
        # faces on the outer boundary of the padded ring are zero-zero
        assert u @ (A @ u) == pytest.approx(energy, rel=1e-12)

    def test_csr_arrays_match_coo_assembly(self, tmp_path):
        mask = np.ones((7, 9), dtype=np.uint8)
        mask[3, 3:5] = 0  # a hole: interior cells with Dirichlet neighbors
        write_pgm(tmp_path / "holed.pgm", mask)
        holed = domain_from_config({"shape": "mask_file", "mask_path": "holed.pgm", "h": 0.5},
                                   tmp_path)
        assert holed.n_cells == 61
        for dom in (make_rectangle(6, 5, 0.5), make_ellipse(17, 13, 0.25, (1.5, 1.0)), holed):
            A, ref = assemble_stiffness(dom), coo_stiffness(dom)
            assert A.has_canonical_format
            for name in ("indptr", "indices", "data"):
                got, want = getattr(A, name), getattr(ref, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("other", [make_rectangle(6, 5, 0.5), make_rectangle(5, 6, 0.5)],
                         ids=["equal-grid", "other-grid"])
def test_guards_reject_a_weight_of_another_domain(small_rect, other):
    with pytest.raises(ValueError, match="weight must live on the given domain"):
        principal_positive_eigenvalue(small_rect, other.constant_field(1.0))


class TestPrincipalEigenvalue:
    def test_unit_square(self, unit_square_64):
        pair = principal_positive_eigenvalue(unit_square_64,
                                             unit_square_64.constant_field(1.0))
        assert pair.lambda1 == pytest.approx(2 * np.pi**2, rel=0.01)
        assert pair.u.values.min() > 0
        A = assemble_stiffness(unit_square_64)
        assert pair.u.values @ (A @ pair.u.values) == pytest.approx(1.0, rel=1e-10)
        Av = A @ pair.u.values
        Mv = pair.u.values * unit_square_64.cell_area
        resid = np.linalg.norm(Av - pair.lambda1 * Mv) / np.linalg.norm(Av)
        assert resid <= 1e-8

    def test_rectangle_2x1(self):
        dom = make_box(2.0, 1.0, 48)
        pair = principal_positive_eigenvalue(dom, dom.constant_field(1.0))
        assert pair.lambda1 == pytest.approx(5 * np.pi**2 / 4, rel=0.01)

    def test_scaling_law(self, small_rect):
        rng = np.random.default_rng(1)
        m_vals = np.where(rng.random(small_rect.n_cells) < 0.6, 1.0, -1.0)
        m = small_rect.field(m_vals)
        lam = principal_positive_eigenvalue(small_rect, m).lambda1
        lam3 = principal_positive_eigenvalue(small_rect, small_rect.field(3.0 * m_vals)).lambda1
        assert lam3 == pytest.approx(lam / 3.0, rel=1e-8)

    @pytest.mark.parametrize("k", [-1000, -900, 900, 1000])
    def test_weight_times_power_of_two(self, k):
        # the Lanczos path solves on m h² divided by a power of two, so a
        # weight 2^k times as large gives λ₁ / 2^k and the same u and
        # residual to the bit, however far 2^k moves m h² from 1
        dom = make_rectangle(20, 20, 0.05)
        assert dom.n_cells > DENSE_MAX_CELLS
        rng = np.random.default_rng(7)
        m_vals = np.where(rng.random(dom.n_cells) < 0.4, 1.0, -0.5)
        pair = principal_positive_eigenvalue(dom, dom.field(m_vals))
        scaled = principal_positive_eigenvalue(dom, dom.field(np.ldexp(m_vals, k)))
        assert scaled.lambda1 == np.ldexp(pair.lambda1, -k)
        assert scaled.u.values.tobytes() == pair.u.values.tobytes()
        assert scaled.residual == pair.residual

    @pytest.mark.parametrize("value", [1e-300, 1e300])
    def test_extreme_constant_weights_solve(self, value):
        dom = make_rectangle(20, 20, 0.05)
        lam = principal_positive_eigenvalue(dom, dom.constant_field(1.0)).lambda1
        pair = principal_positive_eigenvalue(dom, dom.constant_field(value))
        assert pair.lambda1 * value == pytest.approx(lam, rel=1e-12)

    def test_sign_changing_raises_lambda(self, small_rect):
        lam_pos = principal_positive_eigenvalue(
            small_rect, small_rect.constant_field(1.0)).lambda1
        rng = np.random.default_rng(2)
        m_vals = np.where(rng.random(small_rect.n_cells) < 0.5, 1.0, -1.0)
        lam_mix = principal_positive_eigenvalue(small_rect, small_rect.field(m_vals)).lambda1
        assert lam_mix > lam_pos

    def test_weight_not_positive_anywhere(self, small_rect):
        with pytest.raises(ValueError, match="need m h² > 0 on at least one"):
            principal_positive_eigenvalue(small_rect, small_rect.constant_field(-1.0))

    @pytest.mark.parametrize("name", SPLIT_MASKS)
    def test_split_mask_raises(self, name):
        # A of k components is k diagonal blocks: no eigenfunction is
        # positive on every cell, and on the blocks λ₁ is a double eigenvalue
        dom = from_mask(*SPLIT_MASKS[name])
        with pytest.raises(ValueError, match="not one 4-connected set: 2 components"):
            principal_positive_eigenvalue(dom, dom.constant_field(1.0))

    # the cap binds ARPACK solves only: a dense solve of at most
    # DENSE_MAX_CELLS cells counts its n A-solves, far below EIG_MAX_OUTER
    @pytest.mark.parametrize("dom_name", ["rect_above_dense", "ragged_above_dense"])
    def test_iteration_cap_raises(self, dom_name, request, monkeypatch):
        dom = request.getfixturevalue(dom_name)
        monkeypatch.setattr(weightopt.eig, "EIG_MAX_OUTER", 2)
        with pytest.raises(NoConvergence):
            principal_positive_eigenvalue(dom, dom.constant_field(1.0))

    @pytest.mark.parametrize("dom_name", ["rect_above_dense", "ragged_above_dense"])
    def test_cap_counts_a_solves(self, dom_name, request, monkeypatch):
        dom = request.getfixturevalue(dom_name)
        m = dom.constant_field(1.0)

        def capped(cap, **kwargs):
            with monkeypatch.context() as patch:
                patch.setattr(weightopt.eig, "EIG_MAX_OUTER", cap)
                return principal_positive_eigenvalue(dom, m, **kwargs)

        pair = principal_positive_eigenvalue(dom, m)
        assert capped(pair.iterations).lambda1 == pair.lambda1
        with pytest.raises(NoConvergence):
            capped(pair.iterations - 1)
        u0 = pair.u.values
        warm = principal_positive_eigenvalue(dom, m, u0=u0)
        assert capped(warm.iterations, u0=u0).lambda1 == warm.lambda1
        with pytest.raises(NoConvergence):
            capped(warm.iterations - 1, u0=u0)

    # 12-wide masks on either side of the threshold, and the 1 x 128 and
    # 2 x 64 strips: the worst-conditioned A that the dense path whitens,
    # whose far-field entries fall below rounding
    @pytest.mark.parametrize("n_cells, width", [
        pytest.param(DENSE_MAX_CELLS, 12, id=str(DENSE_MAX_CELLS)),
        pytest.param(DENSE_MAX_CELLS + 1, 12, id=str(DENSE_MAX_CELLS + 1)),
        pytest.param(DENSE_MAX_CELLS, DENSE_MAX_CELLS, id="strip-1x128"),
        pytest.param(DENSE_MAX_CELLS, DENSE_MAX_CELLS // 2, id="strip-2x64"),
    ])
    def test_agreement_across_dense_threshold(self, n_cells, width):
        dom = first_cells(n_cells, width)
        assert dom.n_cells == n_cells
        A = assemble_stiffness(dom)
        rng = np.random.default_rng(n_cells)
        for _ in range(3):
            m = dom.field(np.where(rng.permutation(n_cells) < n_cells // 3, 1.0, -1.0))
            pair = principal_positive_eigenvalue(dom, m)
            assert pair.lambda1 == pytest.approx(dense_lambda1(m), rel=1e-10)
            assert pair.lambda1 == pytest.approx(batch_lambda1(dom, m), rel=1e-10)
            u = pair.u.values
            assert u.min() > 0
            Au = A @ u
            assert u @ Au == pytest.approx(1.0, rel=1e-12)
            resid = np.linalg.norm(Au - pair.lambda1 * m.values * dom.cell_area * u)
            assert resid / np.linalg.norm(Au) <= EIG_RESIDUAL_RTOL
            if n_cells <= DENSE_MAX_CELLS:
                assert pair.iterations == n_cells

    @pytest.mark.parametrize("dom_name", ["small_rect", "rect_above_dense",
                                          "ragged_above_dense"])
    def test_one_negative_entry_raises(self, dom_name, request, monkeypatch):
        # the largest entry is negated to -max u / 2: |u| then halves that
        # entry, and its residual (about 1) misses the default tolerance
        dom = request.getfixturevalue(dom_name)
        m = dom.constant_field(1.0)
        u = principal_positive_eigenvalue(dom, m).u.values.copy()
        k = int(np.argmax(u))
        u[k] = -u[k] / 2
        return_vector(monkeypatch, dom, u)
        with pytest.raises(NoConvergence, match="eigenpair rejected: residual"):
            principal_positive_eigenvalue(dom, m)

    @pytest.mark.parametrize("dom_name, share, wrong_pairs", [
        ("small_rect", 3, 9), ("rect_above_dense", 3, 42), ("ragged_above_dense", 3, 42),
        ("dumbbell_above_dense", 1, 215)])
    def test_every_wrong_eigenpair_raises(self, dom_name, share, wrong_pairs, request,
                                          monkeypatch):
        # negative control of the acceptance rule, with m = 1 on a random
        # 1/share of the cells and -1 elsewhere: every eigenpair with μ > 0
        # other than the principal one changes sign, so by Kato's inequality
        # its |u| misses the eigen-equation, however near μ₁ its μ lies.  On
        # the dumbbell (m = 1) λ₂ is 5.6e-11 above λ₁, and |u₂|'s residual
        # is 2.0e-5
        dom = request.getfixturevalue(dom_name)
        n = dom.n_cells
        m = dom.field(np.where(np.random.default_rng(n).permutation(n) < n // share, 1.0, -1.0))
        m_diag = m.values * dom.cell_area
        A = assemble_stiffness(dom).toarray()
        mus, vecs = scipy.linalg.eigh(np.diag(m_diag), A)
        wrong = np.flatnonzero(mus[:-1] > 0)
        assert wrong.size == wrong_pairs
        for k in wrong:
            u = vecs[:, k]
            Au = A @ u  # a true eigenpair: only its sign disqualifies it
            assert np.linalg.norm(Au - m_diag * u / mus[k]) <= 1e-10 * np.linalg.norm(Au)
            with monkeypatch.context() as patch:
                return_vector(patch, dom, u, mu=mus[k])
                with pytest.raises(NoConvergence, match="eigenpair rejected"):
                    principal_positive_eigenvalue(dom, m)

    def test_near_double_lambda1_accepted(self):
        # two 6 x 6 blocks joined by a 48-cell neck: λ₂ equals λ₁ to
        # rounding, so dsyevr returns a sign-changing mix of u₁ and u₂, and
        # its |u| is an eigenvector to rounding
        dom = from_mask(dumbbell(6, 48), 0.1)
        assert dom.n_cells == 120
        m = dom.constant_field(1.0)
        pair = principal_positive_eigenvalue(dom, m)
        assert pair.lambda1 == pytest.approx(dense_lambda1(m), rel=1e-15, abs=0)
        assert pair.residual <= EIG_RESIDUAL_RTOL

    def test_far_field_below_rounding_accepted(self):
        # a cold Lanczos solve whose eigenfunction is localized on the
        # favourable tenth of the 48-grid box: far-field entries fall below
        # the solver's stop and carry either sign
        dom = make_box(1.0, 1.0, 48)
        n = dom.n_cells
        m = dom.field(np.where(np.random.default_rng(0).permutation(n) < n // 10, 1.0, -1.0))
        pair = principal_positive_eigenvalue(dom, m)
        u = pair.u.values
        assert 0 < u.min()
        assert pair.residual <= EIG_RESIDUAL_RTOL

    def test_lapack_failure_raises(self, small_rect, monkeypatch):
        monkeypatch.setattr(weightopt.eig, "dsyevr", lambda a, **kwargs: (None, None, 0, None, 1))
        with pytest.raises(NoConvergence, match="info = 1"):
            principal_positive_eigenvalue(small_rect, small_rect.constant_field(1.0))

    def test_dense_ignores_u0(self, small_rect):
        assert small_rect.n_cells <= DENSE_MAX_CELLS
        rng = np.random.default_rng(9)
        m = small_rect.field(np.where(rng.random(small_rect.n_cells) < 0.4, 1.0, -1.0))
        cold = principal_positive_eigenvalue(small_rect, m)
        warm = principal_positive_eigenvalue(small_rect, m,
                                             u0=rng.random(small_rect.n_cells))
        assert warm.lambda1 == cold.lambda1
        assert warm.u.values.tobytes() == cold.u.values.tobytes()
        assert (warm.residual, warm.iterations) == (cold.residual, cold.iterations)

    @pytest.mark.parametrize("make", [
        lambda: make_rectangle(6, 10, 0.5),
        lambda: make_rectangle(DENSE_MAX_CELLS // 10 + 1, 10, 0.5),
        lambda: first_cells(DENSE_MAX_CELLS + 1),
    ], ids=["dense", "lanczos", "ragged"])
    def test_factor_cache_lets_the_domain_die(self, make):
        dom = make()
        principal_positive_eigenvalue(dom, dom.constant_field(1.0))
        alive = weakref.ref(dom)
        del dom
        gc.collect()
        assert alive() is None

    def test_clustered_spectrum_converges(self):
        # 8 cells, h = 0.5 ('.' outside); positive pencil eigenvalues
        # μ = 0.06989, 0.06455, 0.06455, so λ₁ is simple but the top is clustered
        layout = [". + .", ". - .", "+ - +", "- - -"]
        cells = [row.split() for row in layout]
        dom = from_mask(np.array([[c != "." for c in row] for row in cells]), 0.5)
        m = dom.field(np.array([1.0 if c == "+" else -1.0
                                for row in cells for c in row if c != "."]))
        pair = principal_positive_eigenvalue(dom, m)
        assert pair.lambda1 == pytest.approx(dense_lambda1(m), rel=1e-10)
        assert pair.lambda1 == pytest.approx(batch_lambda1(dom, m), rel=1e-10)

    def test_single_cell(self):
        h, m = 0.5, 3.0
        dom = from_mask(np.array([[True]]), h)
        pair = principal_positive_eigenvalue(dom, dom.constant_field(m))
        assert pair.lambda1 == pytest.approx(4.0 / (m * h * h), rel=1e-15)
        assert pair.u.values == pytest.approx([0.5], rel=1e-15)

    def test_monotonicity_in_weight(self, small_rect):
        rng = np.random.default_rng(3)
        for _ in range(5):
            base = rng.uniform(-1.0, 1.0, small_rect.n_cells)
            base[rng.integers(small_rect.n_cells)] = 1.0  # ensure positivity
            bump = rng.uniform(0.0, 0.5, small_rect.n_cells)
            lam_small = principal_positive_eigenvalue(small_rect, small_rect.field(base)).lambda1
            lam_big = principal_positive_eigenvalue(small_rect, small_rect.field(base + bump)).lambda1
            assert lam_big <= lam_small * (1 + 1e-10)

    def test_reflection_equivariance(self):
        dom = make_rectangle(7, 5, 0.5)
        rng = np.random.default_rng(4)
        m_vals = rng.uniform(-1.0, 1.0, dom.n_cells)
        m_vals[0] = 1.0
        m = dom.field(m_vals)
        grid = m.to_grid()[:, ::-1]
        m_ref = dom.field(grid[dom.cell_rows, dom.cell_cols])
        lam = principal_positive_eigenvalue(dom, m).lambda1
        lam_ref = principal_positive_eigenvalue(dom, m_ref).lambda1
        assert lam_ref == pytest.approx(lam, rel=1e-10)

    def test_rotation_equivariance(self):
        dom = make_rectangle(6, 6, 0.5)
        rng = np.random.default_rng(8)
        m_vals = rng.uniform(-1.0, 1.0, dom.n_cells)
        m_vals[0] = 1.0
        m = dom.field(m_vals)
        grid = np.rot90(m.to_grid())
        m_rot = dom.field(grid[dom.cell_rows, dom.cell_cols])
        lam = principal_positive_eigenvalue(dom, m).lambda1
        lam_rot = principal_positive_eigenvalue(dom, m_rot).lambda1
        assert lam_rot == pytest.approx(lam, rel=1e-10)

    def test_grid_convergence_order_two(self):
        exact = 2 * np.pi**2
        errs = []
        for n in (32, 64):
            dom = make_box(1.0, 1.0, n)
            lam = principal_positive_eigenvalue(dom, dom.constant_field(1.0)).lambda1
            errs.append(abs(lam - exact))
        ratio = errs[0] / errs[1]
        assert 3.6 <= ratio <= 4.4

    @pytest.mark.parametrize("dom_name", ["small_rect", "rect_above_dense",
                                          "ragged_above_dense"])
    def test_warm_start_agrees(self, dom_name, request):
        dom = request.getfixturevalue(dom_name)
        rng = np.random.default_rng(5)
        m = rng_field(dom, rng)
        if m.values.max() <= 0:
            m = dom.constant_field(1.0)
        cold = principal_positive_eigenvalue(dom, m)
        warm = principal_positive_eigenvalue(dom, m, u0=cold.u.values)
        assert warm.lambda1 == pytest.approx(cold.lambda1, rel=1e-9)
        if dom.n_cells > DENSE_MAX_CELLS:
            # a warm Lanczos start from the eigenvector itself converges
            # within its small basis
            assert warm.lambda1 == pytest.approx(cold.lambda1, rel=1e-12)
            assert warm.iterations <= cold.iterations / 2

    @pytest.mark.parametrize("dom", [make_box(1.0, 1.0, 24), make_ellipse(33, 33, 1 / 32, (0.5, 0.5))],
                             ids=["box24", "disk32"])
    def test_warm_lambda_is_second_order(self, dom, monkeypatch):
        # a warm solve stops at a loose Ritz estimate of the non-normal A⁻¹M,
        # but λ₁ is the pencil's Rayleigh quotient of the Ritz vector, whose
        # error is of second order: it matches the cold λ₁ to rounding.  The
        # Ritz value itself, recorded here, misses that on some weights.
        ritz = []
        eigs = weightopt.eig.eigs

        def recording(*args, **kwargs):
            out = eigs(*args, **kwargs)
            ritz.append(out[0][0].real)
            return out

        monkeypatch.setattr(weightopt.eig, "eigs", recording)
        n = dom.n_cells
        ritz_errors = []
        for seed in range(24):
            rng = np.random.default_rng(seed)
            share, low = int(rng.integers(n // 10, n // 2)), -float(rng.uniform(0.1, 1.0))
            m = dom.field(np.where(rng.permutation(n) < share, 1.0, low))
            u = principal_positive_eigenvalue(dom, m).u
            step = rearrangement_step(m, u)
            # the optimizer's warm solve, from the eigenfunction before the step
            warm = principal_positive_eigenvalue(dom, step, u0=u.values)
            warm_ritz = ritz[-1]
            cold = principal_positive_eigenvalue(dom, step)
            assert warm.lambda1 == pytest.approx(cold.lambda1, rel=1e-14, abs=0)
            # the Ritz value is of A⁻¹M / 2^e
            e = int(np.frexp(np.abs(step.values).max() * dom.cell_area)[1])
            ritz_errors.append(abs(np.ldexp(warm_ritz, e) * cold.lambda1 - 1.0))
        assert max(ritz_errors) > 1e-14

    def test_warm_residual_keeps_its_margin(self, monkeypatch):
        # a warm solve stops at a Ritz estimate 1000x below the checked
        # residual; every warm residual of these optimizer runs stays 20x
        # below it: 1.8e-10 over 203 solves, and 3.6e-10 over 266 without
        # the starts' cheap ranking moves, whose warm solves from an exact
        # eigenfunction read 6.8e-10 with a stop at 100x (the runs with the
        # moves give the same bits with a stop at 100x, and read 5.7e-9 at 50x)
        def recording(domain, m, *, u0=None, **kwargs):
            pair = principal_positive_eigenvalue(domain, m, u0=u0, **kwargs)
            if u0 is not None:
                residuals.append(pair.residual)
            return pair

        monkeypatch.setattr(weightopt.optimize, "principal_positive_eigenvalue", recording)
        for rank_solves in (weightopt.optimize.RANK_SOLVES, 0):
            monkeypatch.setattr(weightopt.optimize, "RANK_SOLVES", rank_solves)
            residuals = []
            for dom in (make_box(1.0, 1.0, 32), make_ellipse(41, 41, 1 / 40, (0.5, 0.5)),
                        make_ellipse(33, 33, 1 / 32, (0.5, 0.5))):
                omega = dom.total_measure
                for rng_seed in range(5):
                    optimize_two(dom, *remark_classes(dom), seeds=2, rng_seed=rng_seed)
                    optimize_single(dom, (1.0, 1.0, omega / 6), seeds=2, rng_seed=rng_seed)
            assert len(residuals) > 100, rank_solves
            assert max(residuals) <= EIG_RESIDUAL_RTOL / 20, rank_solves

    def test_ritz_value_is_not_read(self, rect_above_dense, monkeypatch):
        # λ₁ is the Rayleigh quotient of ARPACK's vector, so a non-real Ritz
        # value with the true vector changes no bit, and the vector alone
        # decides: a second eigenvector is rejected
        dom = rect_above_dense
        m = dom.constant_field(1.0)
        ref = principal_positive_eigenvalue(dom, m)
        eigs = weightopt.eig.eigs

        def complex_pair(*args, **kwargs):
            vals, vecs = eigs(*args, **kwargs)
            return vals + 1e-3j, vecs

        monkeypatch.setattr(weightopt.eig, "eigs", complex_pair)
        pair = principal_positive_eigenvalue(dom, m)
        assert pair.lambda1 == ref.lambda1
        assert pair.u.values.tobytes() == ref.u.values.tobytes()
        A = assemble_stiffness(dom).toarray()
        vecs = scipy.linalg.eigh(np.diag(m.values * dom.cell_area), A)[1]
        return_vector(monkeypatch, dom, vecs[:, -2])
        with pytest.raises(NoConvergence, match="eigenpair rejected"):
            principal_positive_eigenvalue(dom, m)


@pytest.fixture
def arpack_calls(monkeypatch):
    """Record each ARPACK call in eig as (its keyword arguments, the A-solves
    it made)."""
    calls = []
    real = weightopt.eig.eigs

    def recording(op, **kwargs):
        matvec, solves = op.matvec, [0]

        def counted(x):
            solves[0] += 1
            return matvec(x)

        op.matvec = counted
        out = real(op, **kwargs)
        calls.append((kwargs, solves[0]))
        return out

    monkeypatch.setattr(weightopt.eig, "eigs", recording)
    return calls


def sym_disk_weight(dom, seed):
    """The CLI's `bang_bang` weight of the symmetrize tests' class, m1 = m2 = 1
    and m3 = π/24, about |Ω|/6 on the unit-diameter disk."""
    profile = combined_profile(dom, single_class((1.0, 1.0, math.pi / 24)))
    return random_arrangement(profile, np.random.default_rng([seed, 0xBB]))


class TestTorsionStart:
    """Above DENSE_MAX_CELLS a solve without u0 first takes one
    inverse-iteration step from the torsion function, v = A⁻¹(m h² ⊙ A⁻¹1),
    and runs ARPACK warm from v when v > 0 on every cell."""

    # the all-ones 20-vector start takes 21 A-solves on each constant weight
    # and 31 on the disk's bang-bang weight
    @pytest.mark.parametrize("dom_name, weight, solves", [
        ("rect_above_dense", "constant", 11), ("ragged_above_dense", "constant", 11),
        ("sym_disk_above_dense", "constant", 8), ("sym_disk_above_dense", "bang_bang", 17)])
    def test_positive_mean_weights_start_warm(self, dom_name, weight, solves, request,
                                              arpack_calls):
        dom = request.getfixturevalue(dom_name)
        assert dom.n_cells > DENSE_MAX_CELLS
        m = dom.constant_field(1.0) if weight == "constant" else sym_disk_weight(dom, 2)
        pair = principal_positive_eigenvalue(dom, m)
        (kwargs, arpack), = arpack_calls
        assert (kwargs["ncv"], kwargs["tol"]) == (WARM_NCV, EIG_RESIDUAL_RTOL / 1000)
        assert pair.iterations == arpack + 1 == solves
        assert pair.lambda1 == pytest.approx(dense_lambda1(m), rel=1e-12)

    def test_scattered_small_share_solves_cold(self, arpack_calls):
        # a favourable 1/50 of the 64-grid box, scattered: the step leaves
        # cells of v <= 0, so ARPACK runs the all-ones 20-vector pass, with
        # the stop of every other pass, at 1 more A-solve
        dom = make_box(1.0, 1.0, 64)
        n = dom.n_cells
        m = dom.field(np.where(np.random.default_rng(0).permutation(n) < n // 50, 1.0, -1.0))
        pair = principal_positive_eigenvalue(dom, m)
        (kwargs, arpack), = arpack_calls
        assert (kwargs["ncv"], kwargs["tol"]) == (None, EIG_RESIDUAL_RTOL / 1000)
        assert np.array_equal(kwargs["v0"], np.ones(n))
        assert pair.iterations == arpack + 1

    def test_scattered_small_share_on_the_16_grid_converges(self):
        # a favourable 5 of the 16-grid box's 256 cells, scattered: the step
        # leaves cells of v <= 0, and the cold pass converges, where a stop at
        # machine precision stalled at 20000 A-solves: A⁻¹M's most negative
        # eigenvalue is 48 times μ₁
        dom = make_box(1.0, 1.0, 16)
        m = dom.field(np.where(np.random.default_rng([1, 256]).permutation(256) < 5, 1.0, -1.0))
        dense = dense_lambda1(m)
        assert dense == pytest.approx(982.6368099120417, rel=1e-12)
        assert principal_positive_eigenvalue(dom, m).lambda1 == pytest.approx(dense, rel=1e-8)

    @pytest.mark.parametrize("corner, started", [(-30.0, True), (-100.0, False)])
    def test_one_nonpositive_cell_solves_cold(self, corner, started, arpack_calls):
        # m = 1 except at a corner cell of the 20 x 20 rectangle: v changes
        # sign on that cell at m = -36.9 there, and on no other cell above
        # m = -213, so at -100 exactly one cell of v is negative
        dom = make_rectangle(20, 20, 0.05)
        n = dom.n_cells
        m_vals = np.ones(n)
        m_vals[0] = corner
        A = assemble_stiffness(dom).toarray()
        v = np.linalg.solve(A, m_vals * np.linalg.solve(A, np.ones(n)))
        assert (v[1:] > 0).all() and (v[0] > 0) == started
        m = dom.field(m_vals)
        pair = principal_positive_eigenvalue(dom, m)
        (kwargs, arpack), = arpack_calls
        assert kwargs["ncv"] == (WARM_NCV if started else None)
        assert (kwargs["v0"] == 1.0).all() == (not started)
        assert pair.iterations == arpack + 1
        assert pair.lambda1 == pytest.approx(dense_lambda1(m), rel=1e-12)

    def test_started_residual_keeps_its_margin(self, arpack_calls):
        # a started solve stops as a warm one does, at a Ritz estimate 1000x
        # below the checked residual; from the step v, every residual of
        # these positive-mean weights stays 20x below it: 2.1e-10 over 48
        # solves, and 1.2e-9 with a stop at 100x
        residuals = []
        for dom in (make_box(1.0, 1.0, 32), make_ellipse(33, 33, 1 / 32, (0.5, 0.5)),
                    make_ellipse(49, 49, 1 / 48, (0.5, 0.5))):
            n = dom.n_cells
            for seed in range(8):
                rng = np.random.default_rng(seed)
                for m in (rng.uniform(0.0, 1.0, n),
                          np.where(rng.permutation(n) < 7 * n // 12, 1.0, -1.0)):
                    residuals.append(principal_positive_eigenvalue(dom, dom.field(m)).residual)
        assert [kwargs["ncv"] for kwargs, _ in arpack_calls] == [WARM_NCV] * 48
        assert max(residuals) <= EIG_RESIDUAL_RTOL / 20

    def test_symmetrized_small_share_solves_without_u0(self, tmp_path, monkeypatch):
        # symmetrize solves m♯ as it solves m, without u0: at a favourable
        # 1/10 of the 48-grid disk, scattered, that takes 52 A-solves, where a
        # warm start from m's eigenfunction takes 79
        dom = make_ellipse(49, 49, 1 / 48, (0.5, 0.5))
        n = dom.n_cells
        m = dom.field(np.where(np.random.default_rng(0).permutation(n) < n // 10, 1.0, -1.0))
        write_field_csv(tmp_path / "w.csv", m)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "task": "symmetrize", "output_dir": str(tmp_path / "out"),
            "domain": {"shape": "ellipse", "nx": 49, "ny": 49, "h": 1 / 48,
                       "semi_axes": [0.5, 0.5]},
            "weight": {"kind": "csv", "path": "w.csv"}}))
        calls = []

        def recording(domain, m, **kwargs):
            calls.append((kwargs, principal_positive_eigenvalue(domain, m, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(weightopt.cli, "principal_positive_eigenvalue", recording)
        assert weightopt.cli.run(config) == 0
        (_, before), (kwargs, after) = calls
        m_sym = symmetrize_function(m)
        alone = principal_positive_eigenvalue(dom, m_sym)
        assert kwargs == {} and after.lambda1 == alone.lambda1
        assert (n, after.iterations) == (1789, 52)
        assert principal_positive_eigenvalue(dom, m_sym, u0=before.u.values).iterations > 52


class TestFactorCache:
    @pytest.mark.parametrize("n", [10, 24], ids=["dense", "lanczos"])
    def test_equal_grids_built_apart_share_one_factor(self, n, assemblies):
        disks = [make_ellipse(n + 1, n + 1, 1.0 / n, (0.5, 0.5)) for _ in range(2)]
        assert (disks[0].n_cells <= DENSE_MAX_CELLS) == (n == 10)
        pairs = [principal_positive_eigenvalue(d, d.constant_field(1.0)) for d in disks]
        assert len(assemblies) == 1
        assert (weightopt.eig._factored_stiffness(disks[0])
                is weightopt.eig._factored_stiffness(disks[1]))
        assert pairs[0].u.values.tobytes() == pairs[1].u.values.tobytes()

    def test_half_the_spacing_shares_the_factor(self, rect_above_dense, assemblies):
        # A does not depend on h; on the Lanczos path m h² / 4 scales
        # exactly, so λ₁ is 4 times as large and u has the same bits
        fine = make_rectangle(DENSE_MAX_CELLS // 10 + 1, 10, rect_above_dense.h / 2)
        rng = np.random.default_rng(2)
        m_vals = np.where(rng.random(fine.n_cells) < 0.4, 1.0, -0.5)
        pair = principal_positive_eigenvalue(rect_above_dense, rect_above_dense.field(m_vals))
        half = principal_positive_eigenvalue(fine, fine.field(m_vals))
        assert len(assemblies) == 1
        assert half.lambda1 == 4.0 * pair.lambda1
        assert half.u.values.tobytes() == pair.u.values.tobytes()

    @pytest.mark.parametrize("n", [10, 24], ids=["dense", "lanczos"])
    def test_only_the_last_factor_outlives_its_domain(self, n, assemblies, monkeypatch):
        def disk(k):
            return make_ellipse(k + 1, k + 1, 1.0 / k, (0.5, 0.5))

        dom = disk(n)
        A = weakref.ref(weightopt.eig._factored_stiffness(dom)[0])
        del dom
        gc.collect()
        assert A() is not None
        weightopt.eig._factored_stiffness(disk(n))  # found, not factored again
        assert len(assemblies) == 1
        # a larger mask is factored only after the dead domain's factor is freed
        freed = []
        counted = weightopt.eig.assemble_stiffness

        def assemble(domain):
            gc.collect()
            freed.append(A() is None)
            return counted(domain)

        monkeypatch.setattr(weightopt.eig, "assemble_stiffness", assemble)
        weightopt.eig._factored_stiffness(disk(2 * n))
        assert freed == [True] and assemblies == [(n + 1, n + 1), (2 * n + 1, 2 * n + 1)]


class SuperLURefused(Exception):
    pass


@pytest.fixture
def no_superlu(monkeypatch):
    """Forget the last stiffness factor for one test and make every SuperLU
    factorization in eig raise SuperLURefused."""
    monkeypatch.setattr(weightopt.eig, "_LAST", (None, None))

    def refuse(*args, **kwargs):
        raise SuperLURefused

    monkeypatch.setattr(weightopt.eig, "splu", refuse)


class TestSineBasis:
    @pytest.mark.parametrize("dom", [
        make_rectangle(12, 11, 0.5), make_rectangle(20, 9, 0.5), make_box(1.0, 1.0, 32),
        from_mask(np.ones((1, 200)), 0.1), from_mask(np.pad(np.ones((12, 13)), 2), 0.5),
        make_rectangle(9, 20, 0.5), from_mask(np.ones((200, 1)), 0.1),
        make_rectangle(5000, 3, 0.1),
    ], ids=["rect-12x11", "rect-20x9", "box32", "strip-1x200", "padded",
            "rect-9x20", "strip-200x1", "rect-5000x3"])
    def test_solve_matches_superlu(self, dom, no_superlu):
        # a full rectangle above DENSE_MAX_CELLS is solved in the sine
        # eigenbasis of its shorter side, without a sparse factorization,
        # whichever side that is; the padded mask's cells fill their
        # bounding box, which is not the grid
        A, W, solve, _ = weightopt.eig._factored_stiffness(dom)
        assert W is None and dom.n_cells > DENSE_MAX_CELLS
        lu = splu(A.tocsc())
        rng = np.random.default_rng(dom.n_cells)
        for b in (rng.normal(size=dom.n_cells), rng.normal(size=(dom.n_cells, 6))):
            x, ref = solve(b), lu.solve(b)
            assert x.shape == b.shape
            err = np.linalg.norm(x - ref, axis=0) / np.linalg.norm(ref, axis=0)
            assert np.all(err <= 1e-12)

    @pytest.mark.parametrize("width, height", [(5000, 3), (3, 5000)])
    def test_long_strip_stays_small(self, width, height, no_superlu):
        # the sine matrix is the shorter side's, 3 x 3 here; the solve holds
        # about 200 bytes per cell, where a solver that also diagonalized
        # the 5000-cell side would hold its 5000 x 5000 matrix, 13 kB per cell
        dom = make_rectangle(width, height, 0.1)
        b = np.random.default_rng(0).normal(size=(dom.n_cells, 6))
        tracemalloc.start()
        try:
            _, _, solve, _ = weightopt.eig._factored_stiffness(dom)
            solve(b[:, 0])
            solve(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1000 * dom.n_cells

    def test_routing(self, no_superlu):
        # the unit square never reaches SuperLU; with one corner cell
        # removed its cells no longer fill their bounding box, and it does
        box = make_box(1.0, 1.0, 32)
        report = optimize_two(box, *remark_classes(box), seeds=1)
        assert report.final.lambda1 > 0
        mask = box.mask.copy()
        mask[1, 1] = False
        cut = from_mask(mask, box.h)
        with pytest.raises(SuperLURefused):
            optimize_two(cut, *remark_classes(cut), seeds=1)

    @pytest.mark.parametrize("n", [96, 128])
    def test_far_field_sign_noise(self, n, no_superlu, monkeypatch):
        # cold solves whose eigenfunctions are localized on a favourable
        # tenth or sixth of the box: the far field carries negative rounding
        # noise, and the residuals of |u| stay far below their tolerance
        noise = []

        def recorded(*args, **kwargs):
            ritz, vecs = eigs(*args, **kwargs)
            u = vecs[:, 0].real * np.sign(vecs[:, 0].real.sum())
            noise.append(-u.min() / u.max() / np.finfo(float).eps)
            return ritz, vecs

        monkeypatch.setattr(weightopt.eig, "eigs", recorded)
        dom = make_box(1.0, 1.0, n)
        cells = dom.n_cells
        for share in (10, 6):
            for seed in range(3):
                rng = np.random.default_rng(seed)
                m = dom.field(np.where(rng.permutation(cells) < cells // share, 1.0, -1.0))
                pair = principal_positive_eigenvalue(dom, m)
                assert pair.residual <= EIG_RESIDUAL_RTOL / 20
        assert len(noise) == 6 and max(noise) > 0


class TestRayleigh:
    def test_matches_inverse_lambda(self, small_rect):
        m = small_rect.constant_field(1.0)
        pair = principal_positive_eigenvalue(small_rect, m)
        A = assemble_stiffness(small_rect)
        u = pair.u.values
        quotient = (u @ (m.values * small_rect.cell_area * u)) / (u @ (A @ u))
        assert quotient == pytest.approx(1.0 / pair.lambda1, rel=1e-8)


def swapped(m, i, j):
    values = m.values.copy()
    values[i], values[j] = values[j], values[i]
    return m.domain.field(values)


def certified(bound, pair):
    """The optimizer's rule: a swap is rejected without a solve when its
    bound on 1/λ₁ lies below 1/λ₀ by the tie tolerance."""
    return bound < (1.0 - LAMBDA_TIE_RTOL) / pair.lambda1


eighths = st.integers(-16, 16).map(lambda k: k / 8)


class TestTempleSwapBound:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), big=st.booleans(), seed=st.integers(0, 2**32 - 1),
           levels=st.lists(eighths, min_size=2, max_size=3, unique=True)
           .filter(lambda levels: max(levels) > 0))
    def test_sound_for_random_swaps(self, data, big, seed, levels):
        # a random swap inside a polish round's full candidate list
        rng = np.random.default_rng(seed)
        if big:
            dom = first_cells(data.draw(st.integers(DENSE_MAX_CELLS + 1, 180)))
        else:
            dom = from_mask(random_connected_mask(rng, data.draw(st.integers(2, 10))), 0.5)
        n = dom.n_cells
        levels = sorted(levels, reverse=True)
        values = rng.choice(levels, n)
        values[rng.permutation(n)[:2]] = levels[:2]  # the top level and one more
        m = dom.field(values)
        i = data.draw(st.integers(0, n - 1))
        j = int(data.draw(st.sampled_from(np.flatnonzero(values != values[i]).tolist())))
        m_swap = swapped(m, i, j)

        pair = principal_positive_eigenvalue(dom, m)
        beta = second_mu_bound(dom, float(values.max()))
        swaps = _swap_candidates(values, pair.u.values)
        at = data.draw(st.integers(0, len(swaps)))
        swaps.insert(at, (i, j))
        bounds = temple_swap_bounds(m, pair, swaps)
        assert bounds.shape == (len(swaps),)
        bound = bounds[at]
        A = assemble_stiffness(dom).toarray()
        mu = scipy.linalg.eigh(np.diag(m_swap.values * dom.cell_area), A, eigvals_only=True)
        assert beta >= mu[-2] - 1e-12 * abs(mu[-2])
        if np.isfinite(bound):
            assert bound >= (1.0 - 1e-12) / dense_lambda1(m_swap)
        if not big:
            # every swap of the round: none that lowers λ₁ is certified
            batch = np.stack([values] + [swapped(m, a, b).values for a, b in swaps])
            lam0, *lams = _batch_lambda1(dom, batch)
            for b, lam in zip(bounds, lams):
                assert lam * b >= 1.0 - 1e-12
                if lam < lam0 * (1.0 - LAMBDA_TIE_RTOL):
                    assert not certified(b, pair)

    def test_every_swap_on_oracle_domains(self):
        # all cross-level swaps of random weights on small domains, bounded
        # as one round: a swap that lowers λ₁ is never certified, and the
        # bound does certify some
        rng = np.random.default_rng(3)
        lowering = certified_count = 0
        for _ in range(30):
            dom = from_mask(random_connected_mask(rng, int(rng.integers(4, 11))), 0.5)
            n = dom.n_cells
            values = rng.choice([1.0, 0.0, -1.0], n, p=[0.6, 0.2, 0.2])
            values[0] = 1.0
            m = dom.field(values)
            pair = principal_positive_eigenvalue(dom, m)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if values[i] != values[j]]
            batch = np.stack([values] + [swapped(m, i, j).values for i, j in pairs])
            lam0, *lams = _batch_lambda1(dom, batch)
            bounds = temple_swap_bounds(m, pair, pairs)
            for bound, lam in zip(bounds, lams):
                is_certified = certified(bound, pair)
                if lam < lam0 * (1.0 - LAMBDA_TIE_RTOL):
                    lowering += 1
                    assert not is_certified
                certified_count += is_certified
        assert lowering > 0 and certified_count > 0

    @staticmethod
    def polish_round(dom):
        """(m, its eigenpair, a polish round's swaps): m is comonotone with
        the constant weight's eigenfunction, near the optimum where the
        optimizer screens and most bounds are finite."""
        rng = np.random.default_rng(11)
        profile = np.sort(rng.choice([1.0, 0.0, -1.0], dom.n_cells, p=[0.3, 0.3, 0.4]))[::-1]
        m = rearrangement_step(dom.field(profile), principal_positive_eigenvalue(
            dom, dom.constant_field(1.0)).u)
        pair = principal_positive_eigenvalue(dom, m)
        return m, pair, _swap_candidates(m.values, pair.u.values)

    @pytest.mark.parametrize("dom", [make_rectangle(6, 5, 0.5), make_box(1.0, 1.0, 12),
                                     make_rectangle(12, 12, 0.5), make_box(1.0, 1.0, 24)],
                             ids=["dense-rect", "dense-box", "lanczos-rect", "lanczos-box"])
    def test_block_matches_one_swap_calls(self, dom):
        # columns of the block solves do not mix: each bound of a polish
        # round equals the bound of its swap alone
        m, pair, swaps = self.polish_round(dom)
        bounds = temple_swap_bounds(m, pair, swaps)
        one = np.array([temple_swap_bounds(m, pair, [s])[0] for s in swaps])
        assert np.isfinite(one).sum() > len(swaps) // 2
        assert np.array_equal(np.isinf(bounds), np.isinf(one))
        finite = np.isfinite(one)
        np.testing.assert_allclose(bounds[finite], one[finite], rtol=1e-12, atol=0)
        assert temple_swap_bounds(m, pair, []).shape == (0,)

    @pytest.mark.parametrize("k", [-1000, 1000])
    @pytest.mark.parametrize("dom", [make_rectangle(6, 5, 0.5), make_rectangle(12, 12, 0.5)],
                             ids=["dense-rect", "lanczos-rect"])
    def test_weight_times_power_of_two(self, dom, k):
        # the bounds are taken on m h² scaled into [1/2, 1), so a weight 2^k
        # times as large gets bounds 2^k times as large, to the bit, with no
        # overflow near the largest double or underflow near the smallest
        m, pair, swaps = self.polish_round(dom)
        bounds = temple_swap_bounds(m, pair, swaps)
        assert np.isfinite(bounds).sum() > len(swaps) // 2
        pair_k = EigenPair(np.ldexp(pair.lambda1, -k), pair.u, pair.residual, pair.iterations)
        scaled = temple_swap_bounds(dom.field(np.ldexp(m.values, k)), pair_k, swaps)
        assert np.array_equal(scaled, np.ldexp(bounds, k))

    def test_mu0_at_most_beta_solves_nothing(self, monkeypatch):
        # the weak class (1, 1, -0.9) on the 20 x 20 rectangle: at its
        # optimum μ₀ = 1/λ₀ lies below β, and a finite bound would exceed
        # β >= μ₀, so every bound is inf and the factor is never used
        dom = make_rectangle(20, 20, 0.05)
        report = optimize_single(dom, (1.0, 1.0, -0.9), seeds=1)
        beta = second_mu_bound(dom, 1.0)
        assert report.final.lambda1 == pytest.approx(154.38264, rel=1e-6)
        assert beta == pytest.approx(0.02248, rel=1e-3)
        assert 1.0 / report.final.lambda1 < beta
        swaps = _swap_candidates(report.weight.values, report.final.u.values)

        def refuse(domain):
            raise AssertionError("the screen touched the factor")

        monkeypatch.setattr(weightopt.eig, "_factored_stiffness", refuse)
        bounds = temple_swap_bounds(report.weight, report.final, swaps)
        assert len(swaps) > 0
        assert np.array_equal(bounds, np.full(len(swaps), np.inf))

    @pytest.mark.parametrize("nx, ny", [(1, 2), (1, 7), (5, 1), (6, 5), (13, 11)])
    def test_beta_on_rectangles(self, nx, ny):
        # on a full rectangle A = A_R, so β is m_max h² / λ₂(A) exactly
        dom = from_mask(np.ones((ny, nx)), 0.5)
        lam2 = np.linalg.eigvalsh(assemble_stiffness(dom).toarray())[1]
        assert second_mu_bound(dom, 2.0) == pytest.approx(2.0 * 0.25 / lam2, rel=1e-12)
