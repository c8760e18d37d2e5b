"""Acceptance suite: one test per criterion, and a negative control of
criterion 4, printing a PASS line each.

Heavy optimization runs are shared through session fixtures; everything is
seeded and deterministic.  The full module takes about 2.5 s on one thread
of a shared AMD EPYC vCPU (OPENBLAS_NUM_THREADS=1), dominated by the
n = 128 symmetry runs and the 100-trial brute-force oracle comparison.
"""

import time

import numpy as np
import pytest

from weightopt.eig import principal_positive_eigenvalue
from weightopt.grid import (
    from_mask,
    make_box,
    make_ellipse,
    make_rectangle,
    transpose_field,
)
from weightopt.optimize import (
    LAMBDA_TIE_RTOL,
    decompose,
    optimize_single,
    optimize_two,
)
from weightopt.rearrange import (
    ResourceClass,
    comonotone,
    decreasing_rearrangement,
    equimeasurable,
    hl_inner,
    hl_pairing,
    pair_family,
    precedes,
)
from weightopt.steiner import (
    symmetrize_function,
    symmetrize_set,
    symmetry_defect,
)
from weightopt.verify import (
    dense_lambda1,
    enumerate_bang_bang_minimum,
    random_connected_mask,
)

from conftest import indicator, remark_classes

EIG_RESIDUAL_TOL = 1e-8
SYMMETRY_DEFECT_TOL = 0.02


@pytest.fixture(scope="session")
def remark_n64():
    """Criterion 2 setup: both optimizations on the unit square at n = 64."""
    dom = make_box(1.0, 1.0, 64)
    cls1, cls2 = remark_classes(dom)
    report_two = optimize_two(dom, cls1, cls2, seeds=8, rng_seed=0)
    report_one = optimize_single(
        dom, (1.0, 1.0, dom.total_measure / 6.0), seeds=8, rng_seed=0
    )
    return dom, report_one, report_two


@pytest.fixture(scope="session")
def symmetric_optima_n128():
    """Criterion 4 setup: two-resource optima on square and disk at n = 128."""
    runs = {}
    square = make_box(1.0, 1.0, 128)
    disk = make_ellipse(129, 129, 1 / 128, (0.5, 0.5))
    for name, dom in (("square", square), ("disk", disk)):
        cls1, cls2 = remark_classes(dom)
        report = optimize_two(dom, cls1, cls2, seeds=2, rng_seed=0)
        runs[name] = (dom, report)
    return runs


def test_criterion_1_eigenvalue_correctness():
    exact_square = 2 * np.pi**2
    errs = {}
    for n in (32, 64):
        dom = make_box(1.0, 1.0, n)
        t0 = time.time()
        pair = principal_positive_eigenvalue(dom, dom.constant_field(1.0))
        elapsed = time.time() - t0
        assert elapsed < 30.0
        errs[n] = abs(pair.lambda1 - exact_square)
        if n == 64:
            assert pair.lambda1 == pytest.approx(exact_square, rel=0.01)

    rect = make_box(2.0, 1.0, 64)
    t0 = time.time()
    pair = principal_positive_eigenvalue(rect, rect.constant_field(1.0))
    assert time.time() - t0 < 30.0
    assert pair.lambda1 == pytest.approx(5 * np.pi**2 / 4, rel=0.01)

    ratio = errs[32] / errs[64]
    assert 3.6 <= ratio <= 4.4
    print(f"\nACCEPTANCE 1 eigenvalue correctness: PASS (ratio {ratio:.2f})")


def test_criterion_2_remark_reproduction(remark_n64):
    dom, report_one, report_two = remark_n64
    n_top = int((report_one.weight.values == 1.0).sum())
    assert n_top == round(7 * dom.n_cells / 12)
    lam_single = report_one.final.lambda1
    lam_two = report_two.final.lambda1
    assert lam_single < lam_two
    margin = (lam_two - lam_single) / lam_two
    assert margin >= 10 * EIG_RESIDUAL_TOL
    print(
        f"\nACCEPTANCE 2 remark reproduction: PASS "
        f"(single {lam_single:.6f} < two-resource {lam_two:.6f}, margin {margin:.2%})"
    )


def test_criterion_3_bang_bang_structure():
    checked = []
    for (p1, q1, lfrac1), (p2, q2, lfrac2) in (
        ((0.0, 1.0, 2 / 3), (1.0, 0.0, -1 / 2)),  # e1 > e2
        ((1.0, 0.5, -1 / 4), (0.0, 1.0, 3 / 4)),  # e1 < e2
    ):
        dom = make_rectangle(24, 24, 1 / 24)  # |Omega| = 1 exactly
        omega = dom.total_measure
        cls1 = ResourceClass(p1, q1, lfrac1 * omega)
        cls2 = ResourceClass(p2, q2, lfrac2 * omega)
        report = optimize_two(dom, cls1, cls2, seeds=3, rng_seed=1)

        e1, e2 = cls1.e(omega), cls2.e(omega)
        gamma, delta = min(e1, e2), max(e1, e2)
        w = report.weight.values
        levels = set(np.unique(w))
        big_cls, small_cls = (cls1, cls2) if e1 >= e2 else (cls2, cls1)
        assert levels == {q1 + q2, big_cls.q - small_cls.p, -(p1 + p2)}
        selE, selG = w == q1 + q2, w > -(p1 + p2)
        assert not (selE & ~selG).any()
        area = dom.cell_area
        assert abs(selE.sum() * area - gamma) <= area
        assert abs(selG.sum() * area - delta) <= area

        f1, f2 = decompose(report.weight, cls1, cls2)
        assert np.array_equal(f1.values + f2.values, w)
        big, small = (f1, f2) if e1 >= e2 else (f2, f1)
        # the resource with the larger level set is maxed on all of G
        assert np.all(big.values[selG] == big_cls.q)
        assert np.all(big.values[~selG] == -big_cls.p)
        assert np.all(small.values[selE] == small_cls.q)
        assert np.all(small.values[~selE] == -small_cls.p)
        checked.append(tuple(sorted(float(v) for v in levels)))
    print(f"\nACCEPTANCE 3 bang-bang structure: PASS (levels {checked})")


def test_criterion_4_steiner_symmetry_n128(symmetric_optima_n128):
    reportable = {}
    for name, (dom, report) in symmetric_optima_n128.items():
        defects = [
            symmetry_defect(report.weight),
            symmetry_defect(transpose_field(report.weight)),
        ]
        if name == "disk":
            cls1, cls2 = remark_classes(dom)
            w = report.weight.values
            for cells in (w == cls1.q + cls2.q, w > -(cls1.p + cls2.p)):  # E and G
                chi = indicator(dom, dom.cells_to_mask(cells))
                defects.append(symmetry_defect(chi))
                defects.append(symmetry_defect(transpose_field(chi)))
        assert max(defects) <= SYMMETRY_DEFECT_TOL, (name, defects)
        reportable[name] = max(defects)
    print(
        f"\nACCEPTANCE 4 Steiner symmetry at n=128: PASS "
        f"(max defects {reportable})"
    )


def test_symmetry_breaks_without_a_steiner_axis():
    """Negative control for criterion 4: the paper's symmetry result needs a
    Steiner-symmetric domain.  The annulus 0.3 < r < 0.5 is symmetric under
    every reflection through its centre, but some rows meet it in two
    intervals, so it has no Steiner axis.  Its optimal favourable set for
    the class of share 0.05 gathers on one side."""
    i = np.arange(65) - 32
    r = np.hypot(i[:, None], i) / 64
    dom = from_mask((0.3 < r) & (r < 0.5), 1 / 64)
    assert (dom.n_cells, dom.axis) == (2052, None)
    report = optimize_single(dom, (1.0, 1.0, -0.9 * dom.total_measure), seeds=8, rng_seed=0)
    assert report.final.lambda1 == pytest.approx(399.1930894247767, rel=LAMBDA_TIE_RTOL)
    favourable = report.weight.values > 0
    assert favourable.sum() == 103
    # |mean e^{iθ}| over the favourable cells: 0 for a rotation-invariant set
    center = (np.array(dom.shape) - 1) / 2
    z = (dom.cell_cols - center[1]) + 1j * (dom.cell_rows - center[0])
    concentration = abs(np.mean(z[favourable] / abs(z[favourable])))
    assert concentration >= 0.9
    grid = report.weight.to_grid()
    for mirrored in (grid[:, ::-1], grid[::-1]):
        assert not np.array_equal(mirrored[dom.mask], grid[dom.mask])
    print(f"\nNEGATIVE CONTROL no Steiner axis: PASS (concentration {concentration:.4f})")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for trial in range(100):
        n_cells = int(rng.integers(6, 13))
        dom = from_mask(random_connected_mask(rng, n_cells), 0.5)
        n_top = int(rng.integers(1, n_cells))
        m3 = 2.0 * n_top * dom.cell_area - dom.total_measure
        lam_brute, _ = enumerate_bang_bang_minimum(dom, 1.0, 1.0, n_top)
        report = optimize_single(dom, (1.0, 1.0, m3), seeds=20, rng_seed=trial)
        lam_opt = dense_lambda1(report.weight)
        assert lam_opt <= lam_brute * (1 + 1e-12), (
            trial, n_cells, n_top, lam_brute, lam_opt,
        )
        worst = max(worst, lam_opt / lam_brute - 1.0)
    print(f"\nACCEPTANCE 5 oracle equivalence: PASS (100 trials, worst excess {worst:.1e})")


def test_criterion_6_rearrangement_suite():
    dom = make_rectangle(12, 9, 0.25)
    rng = np.random.default_rng(42)
    for _ in range(1000):
        f = dom.field(rng.integers(-16, 17, dom.n_cells) / 8.0)
        g = dom.field(rng.integers(-16, 17, dom.n_cells) / 8.0)
        actual, bound = hl_inner(f, g)
        tol = 1e-12 * max(1.0, abs(bound))
        assert actual <= bound + tol
        paired, _ = hl_inner(f, hl_pairing(f, g))
        assert abs(paired - bound) <= tol

        outs = pair_family([f, g])
        total = dom.field(outs[0].values + outs[1].values)
        rhs = np.sort(f.values)[::-1] + np.sort(g.values)[::-1]
        assert np.array_equal(decreasing_rearrangement(total), rhs)

        assert precedes(f, f)
        c = dom.constant_field(f.integral() / dom.total_measure)
        assert precedes(c, f)
        perm = dom.field(rng.permutation(f.values))
        assert precedes(perm, f) and precedes(f, perm)
        assert equimeasurable(perm, f)
        if precedes(g, f) and precedes(f, g):
            assert equimeasurable(f, g)
    print("\nACCEPTANCE 6 rearrangement-calculus suite: PASS (1000 pairs)")


def test_criterion_7_descent_invariant(remark_n64):
    _, report_one, report_two = remark_n64
    small = make_box(1.0, 1.0, 12)
    small_report = optimize_single(small, (1.0, 1.0, 0.05), seeds=4, rng_seed=3)
    for report in (report_one, report_two, small_report):
        lam = np.asarray(report.lambda_history)
        assert (np.diff(lam) <= 1e-9 * np.abs(lam[:-1])).all()
        assert comonotone(report.final.u, report.weight)
    print("\nACCEPTANCE 7 descent invariant: PASS (3 recorded runs)")


def test_criterion_8_steiner_suite():
    dom = make_ellipse(17, 13, 0.25, (1.5, 1.0))
    rng = np.random.default_rng(7)
    for _ in range(1000):
        f = dom.field(rng.integers(-16, 17, dom.n_cells) / 8.0)
        fs = symmetrize_function(f)
        assert np.array_equal(np.sort(fs.values), np.sort(f.values))
        assert np.array_equal(symmetrize_function(fs).values, fs.values)

        t = float(rng.choice(f.values))
        sub = dom.cells_to_mask(f.values > t)
        sub_s = symmetrize_set(dom, sub)
        assert sub_s.sum() == sub.sum()
        assert np.array_equal(dom.cells_to_mask(fs.values > t), sub_s)

        psi_of_sym = 3.0 * fs.values + 0.25
        sym_of_psi = symmetrize_function(dom.field(3.0 * f.values + 0.25))
        assert np.array_equal(psi_of_sym, sym_of_psi.values)

        u = np.abs(rng.integers(-16, 17, dom.n_cells) / 8.0)
        mpos = np.abs(rng.integers(-16, 17, dom.n_cells) / 8.0)
        us = symmetrize_function(dom.field(u))
        ms = symmetrize_function(dom.field(mpos))
        before = float(mpos @ u**2)
        after = float(ms.values @ us.values**2)
        assert before <= after + 1e-12 * max(1.0, abs(after))
    print("\nACCEPTANCE 8 Steiner suite: PASS (1000 fields)")
