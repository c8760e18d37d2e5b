import dataclasses
import json
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weightopt.eig
from weightopt import optimize
from weightopt.cli import run as cli_run
from weightopt.eig import assemble_stiffness, principal_positive_eigenvalue
from weightopt.grid import from_mask, make_box, make_ellipse, make_rectangle
from weightopt.optimize import (
    DESCENT_RTOL,
    _swap_candidates,
    combined_profile,
    compare_split_vs_merged,
    decompose,
    optimize_single,
    optimize_two,
    random_arrangement,
    rearrangement_step,
    single_class,
)
from weightopt.rearrange import (
    ResourceClass,
    comonotone,
    decreasing_rearrangement,
    equimeasurable,
    hl_pairing,
    pair_family,
)
from weightopt.steiner import symmetrize_function, symmetry_defect

from conftest import (
    indicator,
    reference_minimize_over_class,
    reference_swap_candidates,
    remark_classes,
)


def toy_profile(values, counts):
    return np.repeat(np.array(values, float), counts)


class TestRearrangementStep:
    def test_three_cell_brute_force(self):
        # brute force over the 3 placements of the -1: the assignment that
        # maximizes sum(m * u^2) puts -1 on the smallest u
        dom = from_mask(np.ones((1, 3), dtype=bool), 1.0)
        u = dom.field([0.2, 0.9, 0.5])
        prof = toy_profile([1.0, -1.0], [2, 1])
        best = max(
            ([(-1.0 if i == k else 1.0) for i in range(3)] for k in range(3)),
            key=lambda vals: float(np.dot(vals, u.values**2)),
        )
        m = rearrangement_step(dom.field(prof), u)
        assert np.array_equal(m.values, best)
        assert np.array_equal(m.values, [-1.0, 1.0, 1.0])

    def test_fixed_point_when_comonotone(self):
        dom = from_mask(np.ones((1, 4), dtype=bool), 1.0)
        u = dom.field([0.9, 0.7, 0.5, 0.1])
        prof = toy_profile([2.0, -1.0], [2, 2])
        m = rearrangement_step(dom.field(prof), u)
        assert np.array_equal(m.values, [2.0, 2.0, -1.0, -1.0])
        assert np.array_equal(rearrangement_step(dom.field(prof), u).values, m.values)

    def test_constant_u_uses_cell_order(self):
        dom = from_mask(np.ones((1, 4), dtype=bool), 1.0)
        u = dom.constant_field(1.0)
        m = rearrangement_step(dom.field(toy_profile([1.0, 0.0], [2, 2])), u)
        assert np.array_equal(m.values, [1.0, 1.0, 0.0, 0.0])

    def test_rejects_nonpositive_u(self):
        dom = from_mask(np.ones((1, 3), dtype=bool), 1.0)
        with pytest.raises(ValueError):
            rearrangement_step(dom.field(toy_profile([1.0], [3])), dom.field([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("classes", [
        remark_classes,
        lambda dom: [ResourceClass(0.0, 1.0, dom.total_measure / 3)],  # levels 1.0 and -0.0
    ], ids=["three-levels", "signed-zero"])
    def test_any_member_of_the_class_serves(self, classes):
        # the step reads only m0's values, sorted: the generator and its
        # random arrangements give the same bytes
        dom = make_rectangle(6, 5, 0.5)
        m0 = combined_profile(dom, *classes(dom))
        u = principal_positive_eigenvalue(dom, dom.constant_field(1.0)).u
        step = rearrangement_step(m0, u).values.tobytes()
        for seed in range(8):
            member = random_arrangement(m0, np.random.default_rng(seed))
            assert member.values.tobytes() != m0.values.tobytes()
            assert rearrangement_step(member, u).values.tobytes() == step

    @pytest.mark.parametrize("other", [make_rectangle(6, 5, 0.5), make_rectangle(5, 6, 0.5)],
                             ids=["equal-mask", "transposed"])
    def test_rejects_a_class_on_another_domain(self, other):
        # 30 cells each, so only the domain check can tell
        dom = make_rectangle(6, 5, 0.5)
        u = dom.constant_field(1.0)
        with pytest.raises(ValueError, match="share a domain"):
            rearrangement_step(other.field(toy_profile([1.0, -1.0], [10, 20])), u)


class TestOptimizeSingle:
    def test_level_set_measure_7_12(self):
        dom = make_box(1.0, 1.0, 16)
        omega = dom.total_measure
        report = optimize_single(dom, (1.0, 1.0, omega / 6.0), seeds=3)
        n_top = int((report.weight.values == 1.0).sum())
        assert n_top == round(7 * dom.n_cells / 12)
        assert report.stabilized
        prof = combined_profile(dom, single_class((1.0, 1.0, omega / 6.0)))
        assert np.array_equal(decreasing_rearrangement(report.weight), prof.values)

    def test_saturated_constraint_single_arrangement(self):
        dom = make_rectangle(4, 4, 0.5)
        omega = dom.total_measure
        m3 = 1.0 * omega - 0.1 * dom.cell_area  # e rounds to every cell
        report = optimize_single(dom, (1.0, 1.0, m3), seeds=1)
        assert np.all(report.weight.values == 1.0)
        assert len(report.lambda_history) == 1

    def test_infeasible_constants(self):
        dom = make_rectangle(4, 4, 0.5)
        omega = dom.total_measure
        with pytest.raises(ValueError, match="infeasible constants"):
            optimize_single(dom, (1.0, 1.0, omega + 1.0), seeds=1)
        with pytest.raises(ValueError, match=r"need p \+ q > 0"):
            optimize_single(dom, (-1.0, 1.0, 0.0), seeds=1)

    def test_descent_and_fixed_point(self):
        dom = make_box(1.0, 1.0, 12)
        report = optimize_single(dom, (1.0, 1.0, dom.total_measure / 6.0), seeds=4)
        lam = np.asarray(report.lambda_history)
        assert (np.diff(lam) <= 1e-9 * np.abs(lam[:-1])).all()
        assert comonotone(report.final.u, report.weight)

    def test_disk_centered_favourable_set(self):
        # at this coarse resolution the discrete minimizer is degenerate
        # along the level boundary (mirror-tied cells), so the defect bound
        # carries a one-orbit slack; the symmetric representative must be
        # exactly as good
        dom = make_ellipse(33, 33, 1 / 32, (0.5, 0.5))
        report = optimize_single(dom, (1.0, 1.0, 0.0), seeds=3)
        E = dom.cells_to_mask(report.weight.values == 1.0)
        assert symmetry_defect(indicator(dom, E)) <= 0.03
        w_sym = symmetrize_function(report.weight)
        lam_sym = principal_positive_eigenvalue(dom, w_sym).lambda1
        assert lam_sym == pytest.approx(report.final.lambda1, rel=1e-9)
        center = (dom.shape[0] // 2, dom.shape[1] // 2)
        assert E[center]

    def test_tied_later_seed_keeps_earlier_winner(self, monkeypatch):
        dom = make_rectangle(6, 5, 0.5)
        consts = (1.0, 1.0, dom.total_measure / 3.0)
        first = optimize_single(dom, consts, seeds=1)
        lam0 = first.final.lambda1

        def run_two_seeds(later_lambda):
            # every solve of the second seed reports later_lambda
            seeds_started = []

            def arrangement(*args):
                seeds_started.append(None)
                return random_arrangement(*args)

            def solve(*args, **kwargs):
                pair = principal_positive_eigenvalue(*args, **kwargs)
                if len(seeds_started) == 1:
                    return pair
                return dataclasses.replace(pair, lambda1=later_lambda)

            monkeypatch.setattr(optimize, "random_arrangement", arrangement)
            monkeypatch.setattr(optimize, "principal_positive_eigenvalue", solve)
            return optimize_single(dom, consts, seeds=2)

        # one ulp below the first seed's optimum is a tie: the first seed stays
        tie = run_two_seeds(np.nextafter(lam0, 0.0))
        assert tie.final.lambda1 == lam0
        assert tie.weight.values.tobytes() == first.weight.values.tobytes()
        # a real improvement still wins, and it is a different arrangement
        better = run_two_seeds(lam0 * (1.0 - 1e-9))
        assert better.final.lambda1 == lam0 * (1.0 - 1e-9)
        assert better.weight.values.tobytes() != first.weight.values.tobytes()

    def test_cycle_polishes_and_ends(self, monkeypatch):
        # the start's cheap ranking moves rank at an arrangement A twice, so
        # they end there, and A is the first weight solved; then the step
        # alternates between another arrangement B and A, so the second step
        # closes a cycle A -> B -> A
        dom = make_rectangle(6, 5, 0.5)
        consts = (1.0, 1.0, dom.total_measure / 3.0)
        profile = combined_profile(dom, single_class(consts))
        a, b = (random_arrangement(profile, np.random.default_rng([0, k])) for k in (2, 1))
        solved, ranked, steps = [], [], []

        def solve(domain, m, **kwargs):
            solved.append(m)
            return principal_positive_eigenvalue(domain, m, **kwargs)

        def step(profile, u):
            (steps if solved else ranked).append(None)
            return b if len(steps) % 2 else a

        # an arbitrary step may lower ∫ m u² and raise λ₁
        monkeypatch.setattr(optimize, "DESCENT_RTOL", 1e3)
        monkeypatch.setattr(optimize, "rearrangement_step", step)
        monkeypatch.setattr(optimize, "principal_positive_eigenvalue", solve)
        report = optimize_single(dom, consts, seeds=1)
        assert len(ranked) == 2 and solved[0] is a
        assert not np.array_equal(a.values, b.values)
        pair_a = principal_positive_eigenvalue(dom, a)
        lam_b = principal_positive_eigenvalue(dom, b, u0=pair_a.u.values).lambda1
        assert report.lambda_history[:2] == [pair_a.lambda1, lam_b]
        # every step but the last was a move, a descent step or an accepted
        # swap; the last closed a cycle whose polish round found no better
        # swap, so the run ended there and not at the cap
        assert len(report.lambda_history) == len(steps) >= 2
        assert not report.stabilized
        assert report.final.lambda1 <= min(pair_a.lambda1, lam_b)


class TestSmoothedStart:
    """Each seed starts at the profile paired with ũ = A⁻¹(w - min w) of its
    random arrangement w, scaled by the profile's power of two, and solves
    that start first."""

    @pytest.mark.parametrize("dom, classes, seeds", [
        (make_rectangle(6, 5, 0.5),
         lambda dom: [single_class((1.0, 1.0, dom.total_measure / 6))], 8),
        (make_box(1.0, 1.0, 16), remark_classes, 4),
        (make_ellipse(13, 13, 1 / 12, (0.5, 0.5)), remark_classes, 4),
    ], ids=["rect6x5", "box16-two", "disk-two"])
    def test_no_solved_weight_is_a_random_arrangement(self, monkeypatch, dom, classes, seeds):
        arrangements, solved = [], []

        def arrangement(*args):
            r = random_arrangement(*args)
            arrangements.append(r.values.tobytes())
            return r

        def solve(domain, m, **kwargs):
            solved.append((len(arrangements), m.values.tobytes()))
            return principal_positive_eigenvalue(domain, m, **kwargs)

        monkeypatch.setattr(optimize, "random_arrangement", arrangement)
        monkeypatch.setattr(optimize, "principal_positive_eigenvalue", solve)
        optimize._minimize_over_class(combined_profile(dom, *classes(dom)), seeds, 0)
        # some seed solves more than its first arrangement, so later solves
        # are checked too
        assert len(arrangements) == seeds and len(solved) > len({s for s, _ in solved})
        assert not set(arrangements) & {values for _, values in solved}

    def test_one_level_class_starts_at_its_arrangement(self, monkeypatch):
        # e rounds to no cell, so every cell takes -m2 = 0.5: ũ = 0, and the
        # start is the one arrangement of the class
        dom = make_rectangle(6, 5, 0.5)
        solved = []

        def solve(domain, m, **kwargs):
            solved.append(m.values.tobytes())
            return principal_positive_eigenvalue(domain, m, **kwargs)

        monkeypatch.setattr(optimize, "principal_positive_eigenvalue", solve)
        report = optimize_single(dom, (1.0, -0.5, 3.76), seeds=2)
        assert solved[0] == np.full(dom.n_cells, 0.5).tobytes()
        assert report.lambda_history == [principal_positive_eigenvalue(
            dom, dom.constant_field(0.5)).lambda1]

    def test_smoothing_with_zero_cells(self, monkeypatch):
        # on the 3 x 1500 rectangle A⁻¹ of one favourable cell underflows to
        # 0 on most cells, which rearrangement_step would reject; the start
        # ranks those ties by cell index instead
        dom = make_rectangle(1500, 3, 0.01)
        consts = (1.0, 1.0, 2 * dom.cell_area - dom.total_measure)  # one favourable cell
        smoothed = []
        factored = optimize._factored_stiffness

        def recording(domain):
            A, W, solve, torsion = factored(domain)

            def smooth(x):
                smoothed.append(solve(x))
                return smoothed[-1]
            return A, W, smooth, torsion

        monkeypatch.setattr(optimize, "_factored_stiffness", recording)
        report = optimize_single(dom, consts, seeds=2)
        assert len(smoothed) == 2
        assert all((u <= 0).sum() > dom.n_cells // 10 for u in smoothed)
        profile = combined_profile(dom, single_class(consts))
        with pytest.raises(ValueError, match="must be positive"):
            rearrangement_step(profile, dom.field(smoothed[0]))
        assert (report.weight.values == 1.0).sum() == 1
        assert report.final.lambda1 == pytest.approx(
            principal_positive_eigenvalue(dom, report.weight).lambda1, rel=1e-12)

    @pytest.mark.parametrize("k", [-1000, 1020])
    def test_weight_times_power_of_two(self, k):
        # the start is ranked by ũ of the arrangement scaled into [1/2, 1),
        # so a profile 2^k times as large, up to 1.1e307, has the same run to
        # the bit, with no overflow and no warning
        dom = make_rectangle(20, 20, 0.05)
        profile = combined_profile(dom, single_class((1.0, 1.0, 0.0)))
        base = optimize._minimize_over_class(profile, 2, 0)
        scaled = optimize._minimize_over_class(dom.field(np.ldexp(profile.values, k)), 2, 0)
        assert scaled.weight.values.tobytes() == np.ldexp(base.weight.values, k).tobytes()
        assert scaled.lambda_history == np.ldexp(base.lambda_history, -k).tolist()


class TestRankingMoves:
    """A start with ũ > 0 takes cheap ranking moves before its first
    eigensolve: RANK_SOLVES inverse-iteration steps v <- A⁻¹(m ⊙ v), then
    the comonotone step from v.  They end at a repeated ranking or at a step
    that leaves a cell of v <= 0."""

    @pytest.mark.parametrize("rng_seed", range(4))
    def test_same_run_as_without_the_moves(self, monkeypatch, rng_seed):
        dom = make_box(1.0, 1.0, 32)
        profile = combined_profile(dom, *remark_classes(dom))
        on, solves_on = _reports_and_solves(monkeypatch, optimize._minimize_over_class,
                                            profile, rng_seed)
        monkeypatch.setattr(optimize, "RANK_SOLVES", 0)
        off, solves_off = _reports_and_solves(monkeypatch, optimize._minimize_over_class,
                                              profile, rng_seed)
        assert on.weight.values.tobytes() == off.weight.values.tobytes()
        assert on.final.lambda1 == pytest.approx(off.final.lambda1, rel=1e-14, abs=0)
        assert solves_on < solves_off

    def test_small_share_solves_its_start_cold(self, monkeypatch):
        # at favourable share 1/50 the first step already leaves a cell of
        # v <= 0 (A⁻¹M's most negative eigenvalue outweighs μ₁), so the start
        # is solved cold and the run is the one without the moves, to the bit
        dom = make_box(1.0, 1.0, 64)
        consts = (1.0, 1.0, (2 / 50 - 1) * dom.total_measure)

        def run():
            cold = []

            def solve(domain, m, **kwargs):
                cold.append(kwargs.get("u0") is None)
                return principal_positive_eigenvalue(domain, m, **kwargs)

            with monkeypatch.context() as mp:
                mp.setattr(optimize, "principal_positive_eigenvalue", solve)
                return optimize_single(dom, consts, seeds=1), cold

        on, cold_on = run()
        monkeypatch.setattr(optimize, "RANK_SOLVES", 0)
        off, cold_off = run()
        assert cold_on[0] and cold_on == cold_off
        assert on.weight.values.tobytes() == off.weight.values.tobytes()
        assert on.lambda_history == off.lambda_history

    def test_moves_end_at_a_repeated_ranking(self, monkeypatch):
        # the planted rankings alternate A, B, A: the third move repeats A,
        # so the moves end there after 3 RANK_SOLVES steps and A is solved
        # warm from the last v.  A and B rank cells by distance to a point
        # left and right of the center, so no step leaves v <= 0.
        dom = make_box(1.0, 1.0, 16)
        profile = combined_profile(dom, *remark_classes(dom))
        r, c = dom.cell_rows, dom.cell_cols
        a, b = (hl_pairing(dom.field(-np.hypot(r - 8.5, c - c0)), profile)
                for c0 in (6, 11))
        ranked, a_solves, solved = [], [], []
        factored = optimize._factored_stiffness

        def counting(domain):
            A, W, solve, torsion = factored(domain)
            return A, W, lambda x: a_solves.append(None) or solve(x), torsion

        def step(profile, u):
            if solved:
                return rearrangement_step(profile, u)
            ranked.append(len(a_solves))
            return b if len(ranked) % 2 == 0 else a

        def solve(domain, m, **kwargs):
            solved.append((m, kwargs.get("u0")))
            return principal_positive_eigenvalue(domain, m, **kwargs)

        monkeypatch.setattr(optimize, "_factored_stiffness", counting)
        monkeypatch.setattr(optimize, "rearrangement_step", step)
        monkeypatch.setattr(optimize, "principal_positive_eigenvalue", solve)
        optimize._minimize_over_class(profile, 1, 0)
        k = optimize.RANK_SOLVES
        assert ranked == [1 + k, 1 + 2 * k, 1 + 3 * k]
        assert solved[0][0] is a and solved[0][1] is not None


def test_level_set_rounding_ignores_float_noise():
    # on the 11 x 11 box the remark's f2 class has e / h² = 60.49999999999999,
    # a half up to rounding, so rounded half up it takes 61 cells
    dom = make_box(1.0, 1.0, 11)
    f2 = remark_classes(dom)[1]
    assert f2.e(dom.total_measure) / dom.cell_area == 60.49999999999999
    (generator,) = optimize._class_generators(dom, f2)
    assert (generator.values == f2.q).sum() == 61


def test_one_class_poses_on_domains_of_any_measure():
    # the class holds no measure: each domain's |Omega| gives its own level
    # set, e = (p|Omega| + l)/(p + q), and its generator is q on e / h² cells
    cls = ResourceClass(p=1.0, q=1.0, l=0.5)
    for nx, cells in ((4, 9), (8, 33)):
        dom = make_rectangle(nx, nx, 0.5)  # |Omega| = 4 and 16
        assert cls.e(dom.total_measure) == cells * dom.cell_area
        assert np.array_equal(combined_profile(dom, cls).values,
                              np.repeat([1.0, -1.0], [cells, dom.n_cells - cells]))


@pytest.fixture(scope="module")
def remark_setup():
    dom = make_rectangle(24, 24, 1 / 24)  # |Omega| = 1 exactly
    cls1, cls2 = remark_classes(dom)
    report = optimize_two(dom, cls1, cls2, seeds=3)
    return dom, cls1, cls2, report


class TestOptimizeTwo:

    def test_level_constants(self, remark_setup):
        dom, cls1, cls2, report = remark_setup
        assert cls1.e(dom.total_measure) == pytest.approx(2 / 3)
        assert cls2.e(dom.total_measure) == pytest.approx(1 / 2)
        profile = combined_profile(dom, cls1, cls2)
        levels, counts = np.unique(profile.values, return_counts=True)
        gamma, delta = np.cumsum(counts[::-1])[:2] * dom.cell_area
        assert (gamma, delta) == (pytest.approx(1 / 2), pytest.approx(2 / 3))
        assert list(levels[::-1]) == [1.0, 0.0, -1.0]

    def test_three_valued_nested(self, remark_setup):
        dom, cls1, cls2, report = remark_setup
        w = report.weight.values
        assert set(np.unique(w)) == {1.0, 0.0, -1.0}
        E, G = w == 1.0, w > -1.0
        assert not (E & ~G).any()
        area = dom.cell_area
        assert abs(E.sum() * area - 1 / 2) <= area
        assert abs(G.sum() * area - 2 / 3) <= area

    def test_realized_integrals(self, remark_setup):
        dom, cls1, cls2, report = remark_setup
        l1, l2 = (part.integral() for part in decompose(report.weight, cls1, cls2))
        assert abs(l1 - cls1.l) <= (cls1.p + cls1.q) * dom.cell_area
        assert abs(l2 - cls2.l) <= (cls2.p + cls2.q) * dom.cell_area

    def test_decompose_matches_closed_form(self, remark_setup):
        dom, cls1, cls2, report = remark_setup
        f1, f2 = decompose(report.weight, cls1, cls2)
        assert np.array_equal(f1.values + f2.values, report.weight.values)
        selG = report.weight.values > -1.0
        selE = report.weight.values == 1.0
        # e1 > e2: first resource maxed on all of G, second only on E
        assert np.all(f1.values[selG] == cls1.q)
        assert np.all(f1.values[~selG] == -cls1.p)
        assert np.all(f2.values[selE] == cls2.q)
        assert np.all(f2.values[~selE] == -cls2.p)

    def test_decompose_rejects_wrong_classes(self, remark_setup):
        dom, cls1, cls2, report = remark_setup
        omega = dom.total_measure
        other = ResourceClass(0.5, 1.0, 0.25 * omega)
        with pytest.raises(ValueError, match="parts do not sum to the weight"):
            decompose(report.weight, other, cls2)

    def test_equal_measures_two_valued(self):
        dom = make_rectangle(8, 8, 0.25)
        cls1 = ResourceClass(1.0, 1.0, 0.0)  # e = |Omega|/2
        cls2 = ResourceClass(2.0, 2.0, 0.0)  # e = |Omega|/2
        report = optimize_two(dom, cls1, cls2, seeds=2)
        w = report.weight.values
        E, G = w == 3.0, w > -3.0
        assert np.array_equal(E, G)
        assert set(np.unique(report.weight.values)) == {3.0, -3.0}
        assert E.sum() == dom.n_cells // 2
        f1, f2 = decompose(report.weight, cls1, cls2)
        assert np.array_equal(f1.values + f2.values, report.weight.values)
        selE = E
        assert np.all(f1.values[selE] == 1.0) and np.all(f2.values[selE] == 2.0)

    def test_infeasible_positivity(self):
        dom = make_rectangle(6, 6, 0.5)
        omega = dom.total_measure
        with pytest.raises(Exception) as exc_info:
            cls1 = ResourceClass(1.0, 0.0, -omega / 2)
            cls2 = ResourceClass(1.0, 0.0, -omega / 3)
            optimize_two(dom, cls1, cls2, seeds=1)
        assert "positive" in str(exc_info.value)

    def test_matches_single_class_on_merged_constraints(self):
        # classes with equal level-set measures collapse to one two-valued
        # class; both optimizers must agree
        dom = make_box(1.0, 1.0, 10)
        cls1 = ResourceClass(1.0, 1.0, 0.0)
        cls2 = ResourceClass(0.5, 0.5, 0.0)
        report2 = optimize_two(dom, cls1, cls2, seeds=4)
        report1 = optimize_single(dom, (1.5, 1.5, 0.0), seeds=4)
        assert report2.final.lambda1 == pytest.approx(report1.final.lambda1, rel=1e-8)


def quantized_cells(domain, measure):
    """measure / h² rounded half up, clamped to [0, n]; a value within a
    relative 1e-12 of a half-integer is first snapped to it."""
    x = measure / domain.cell_area
    half = np.floor(x) + 0.5
    if abs(x - half) <= 1e-12 * abs(x):
        x = half
    return min(max(int(np.floor(x + 0.5)), 0), domain.n_cells)


def stacked_profile(domain, cls1, cls2):
    """Reference for combined_profile, stacked level by level, or None when
    the profile's top level is not positive.

    The profile is (q1+q2, r, -(p1+p2)) on (n_γ, n_δ - n_γ, n - n_δ) cells,
    empty steps dropped and equal neighbours merged."""
    e1, e2 = cls1.e(domain.total_measure), cls2.e(domain.total_measure)
    r = cls1.q - cls2.p if e1 > e2 else cls2.q - cls1.p if e1 < e2 else 0.0
    n = domain.n_cells
    n_gamma = quantized_cells(domain, min(e1, e2))
    n_delta = quantized_cells(domain, max(e1, e2))
    top, bot = cls1.q + cls2.q, -(cls1.p + cls2.p)
    values, counts = [], []
    for v, c in ((top, n_gamma), (r, n_delta - n_gamma), (bot, n - n_delta)):
        if c <= 0:
            continue
        if values and v == values[-1]:
            counts[-1] += c
        else:
            values.append(v)
            counts.append(c)
    if values[0] <= 0:
        return None
    return np.repeat(values, counts)


eighths = st.integers(-8, 16).map(lambda k: k / 8)
class_bounds = st.tuples(eighths, eighths).filter(lambda pq: pq[0] + pq[1] > 0)
level_fraction = st.integers(1, 15).map(lambda k: k / 16)
# fine enough that a level set can round to no cell or to every cell
fine_fraction = st.integers(1, 255).map(lambda k: k / 256)


def class_with_level_fraction(p, q, t, omega):
    """The class {-p <= f <= q, ∫f = l} whose level set has measure t|Ω|."""
    return ResourceClass(p, q, -p * omega + t * (p + q) * omega)


class TestPairedGenerators:
    @settings(max_examples=200, deadline=None)
    @given(nx=st.integers(3, 12), ny=st.integers(3, 12), h=st.sampled_from([0.5, 0.25, 0.1]),
           pq1=class_bounds, t1=level_fraction, pq2=class_bounds, t2=level_fraction,
           equal_e=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_sum_class_and_decomposition(self, nx, ny, h, pq1, t1, pq2, t2, equal_e, seed):
        dom = make_rectangle(nx, ny, h)
        omega = dom.total_measure
        cls1 = class_with_level_fraction(*pq1, t1, omega)
        if equal_e:  # scaling by 2 keeps e bit for bit
            cls2 = ResourceClass(2 * cls1.p, 2 * cls1.q, 2 * cls1.l)
            assert cls2.e(omega) == cls1.e(omega)
        else:
            cls2 = class_with_level_fraction(*pq2, t2, omega)
        expected = stacked_profile(dom, cls1, cls2)
        if expected is None:
            with pytest.raises(ValueError, match="quantized sum is never positive"):
                combined_profile(dom, cls1, cls2)
            return
        profile = combined_profile(dom, cls1, cls2)
        assert np.array_equal(profile.values, expected)

        m = random_arrangement(profile, np.random.default_rng(seed))
        f1, f2 = decompose(m, cls1, cls2)
        assert np.array_equal(f1.values + f2.values, m.values)
        for part, cls in ((f1, cls1), (f2, cls2)):
            k = quantized_cells(dom, cls.e(omega))
            generator = dom.field(np.repeat([cls.q, -cls.p], [k, dom.n_cells - k]))
            assert equimeasurable(part, generator)
        assert comonotone(f1, f2) and comonotone(f2, f1)

    @settings(max_examples=100, deadline=None)
    @given(nx=st.integers(3, 12), ny=st.integers(3, 12), h=st.sampled_from([0.5, 0.25, 0.1]),
           pq=class_bounds, t=fine_fraction, seed=st.integers(0, 2**32 - 1))
    # the level set rounds to no cell and -p = 0.5 > 0: one constant weight
    @example(nx=6, ny=5, h=0.5, pq=(-0.5, 1.0), t=1 / 256, seed=0)
    def test_one_class_is_its_own_generator(self, nx, ny, h, pq, t, seed):
        dom = make_rectangle(nx, ny, h)
        cls = class_with_level_fraction(*pq, t, dom.total_measure)
        k = quantized_cells(dom, cls.e(dom.total_measure))
        # q on k cells and -p on the rest, an empty step dropped
        steps = [(v, c) for v, c in ((cls.q, k), (-cls.p, dom.n_cells - k)) if c > 0]
        values, counts = zip(*steps)
        if values[0] <= 0:
            with pytest.raises(ValueError, match="quantized sum is never positive"):
                combined_profile(dom, cls)
            return
        expected = np.repeat(values, counts)
        profile = combined_profile(dom, cls)
        # bit for bit: -p is -0.0 for p = 0, and weight.csv writes it so
        assert profile.values.tobytes() == expected.tobytes()

        m = random_arrangement(profile, np.random.default_rng(seed))
        (part,) = decompose(m, cls)
        assert np.array_equal(part.values, m.values)


def run_length_cells(cells):
    """Sorted cells with each run of equal values set to its first sorted
    value: the expanded run-length profile, levels (v_k) on counts (c_k)."""
    v = np.sort(cells)[::-1]
    starts = np.flatnonzero(np.r_[True, np.diff(v) != 0])
    return np.repeat(v[starts], np.diff(np.r_[starts, v.size]))


class TestCombinedProfile:
    @pytest.mark.parametrize("dom", [make_box(1.0, 1.0, 11), make_rectangle(24, 24, 1 / 24),
                                     make_ellipse(49, 49, 1 / 48, (0.5, 0.5))],
                             ids=["box-11", "rect-24", "disk-48"])
    def test_read_only_descending_and_bit_exact(self, dom):
        omega = dom.total_measure
        p0 = ResourceClass(0.0, 1.0, omega / 3)  # levels 1.0 and -0.0
        for classes in (remark_classes(dom), (p0,)):
            profile = combined_profile(dom, *classes).values
            assert not profile.flags.writeable
            assert profile.shape == (dom.n_cells,)
            assert (np.diff(profile) <= 0).all()
            parts = optimize.pair_family(optimize._class_generators(dom, *classes))
            expected = run_length_cells(optimize._sum_of(parts))
            assert profile.tobytes() == expected.tobytes()
        assert np.signbit(combined_profile(dom, p0).values[-1])

    @settings(max_examples=300, deadline=None)
    @given(dom=st.sampled_from([make_box(1.0, 1.0, 16), make_ellipse(33, 33, 1 / 32, (0.5, 0.5)),
                                make_rectangle(6, 5, 0.5)]),
           classes=st.lists(st.tuples(class_bounds, fine_fraction), min_size=1, max_size=3))
    def test_equals_the_paired_and_sorted_sum(self, dom, classes):
        # the generators, built in cell order, are paired and their sum
        # sorted already: Hardy-Littlewood pairing and a sort change no bit
        omega = dom.total_measure
        classes = [class_with_level_fraction(*pq, t, omega) for pq, t in classes]
        paired = pair_family(optimize._class_generators(dom, *classes))
        expected = decreasing_rearrangement(dom.field(optimize._sum_of(paired)))
        if expected[0] <= 0:
            with pytest.raises(ValueError, match="quantized sum is never positive"):
                combined_profile(dom, *classes)
            return
        profile = combined_profile(dom, *classes).values
        assert profile.tobytes() == expected.tobytes()
        assert not profile.flags.writeable


def anti_comonotone_step(profile, u):
    """The class element that minimizes ∫ m u² dx: the profile's values on
    the cells by u ascending, the reverse of rearrangement_step."""
    return hl_pairing(u.domain.field(-u.values), profile)


def rising_solve(rise):
    """principal_positive_eigenvalue, but every solve after the first reports
    the λ of the one before times 1 + ``rise``."""
    reported = []

    def solve(domain, m, **kwargs):
        pair = principal_positive_eigenvalue(domain, m, **kwargs)
        lam = reported[-1] * (1.0 + rise) if reported else pair.lambda1
        reported.append(lam)
        return dataclasses.replace(pair, lambda1=lam)

    return solve


class TestDescentGuards:
    """Both descent guards of the fixed-point loop, each tripped by a
    planted fault at the real DESCENT_RTOL.  Each test matches its guard's
    message, so it fails if that guard is deleted, even where the other
    guard would catch the fault later.  The class (1, 1, 0) on the 6 x 5
    rectangle is one whose first seed starts off a fixed point, so its
    second solve is a descent solve."""

    def test_step_that_lowers_the_hardy_littlewood_integral(self, small_rect, monkeypatch):
        monkeypatch.setattr(optimize, "rearrangement_step", anti_comonotone_step)
        with pytest.raises(RuntimeError, match="rearrangement step decreased"):
            optimize_single(small_rect, (1.0, 1.0, 0.0), seeds=2)

    def test_solve_whose_lambda_rises(self, small_rect, monkeypatch):
        monkeypatch.setattr(optimize, "principal_positive_eigenvalue",
                            rising_solve(2 * DESCENT_RTOL))
        with pytest.raises(RuntimeError, match="lambda increased"):
            optimize_single(small_rect, (1.0, 1.0, 0.0), seeds=2)

    def test_rise_within_the_tolerance_passes(self, small_rect, monkeypatch):
        monkeypatch.setattr(optimize, "principal_positive_eigenvalue",
                            rising_solve(DESCENT_RTOL / 2))
        report = optimize_single(small_rect, (1.0, 1.0, 0.0), seeds=2)
        assert len(report.lambda_history) > 1

    @pytest.mark.parametrize("name, fault, message", [
        ("rearrangement_step", anti_comonotone_step, "rearrangement step decreased"),
        ("principal_positive_eigenvalue", rising_solve(2 * DESCENT_RTOL), "lambda increased"),
    ], ids=["step", "solve"])
    def test_cli_exits_4_with_one_line(self, tmp_path, monkeypatch, capsys,
                                       name, fault, message):
        monkeypatch.setattr(optimize, name, fault)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "task": "optimize", "domain": {"shape": "rectangle", "nx": 6, "ny": 5, "h": 0.5},
            "single_class": {"m1": 1.0, "m2": 1.0, "m3": 0.0}, "seeds": 2,
            "output_dir": str(tmp_path / "out")}))
        assert cli_run(config) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"verification failed: {message}")
        assert len(err.splitlines()) == 1, err


@pytest.mark.parametrize("run", [
    lambda dom: optimize_single(dom, (1.0, 1.0, 1.25), seeds=0),
    lambda dom: optimize_two(dom, *remark_classes(dom), 0),
], ids=["optimize-single", "optimize-two"])
def test_guards_reject_zero_seeds(small_rect, run):
    with pytest.raises(ValueError, match="at least one seed"):
        run(small_rect)


class TestCompareSplitVsMerged:
    def test_strict_ordering_coarse(self):
        dom = make_box(1.0, 1.0, 16)
        report_two, report_one = compare_split_vs_merged(dom, seeds=3)
        assert report_one.final.lambda1 < report_two.final.lambda1

    def test_requires_axis(self):
        mask = np.zeros((6, 7), dtype=bool)
        mask[1:5, 1:5] = True  # off-center block: no symmetry axis
        dom = from_mask(mask, 0.5)
        assert dom.axis is None
        with pytest.raises(ValueError):
            compare_split_vs_merged(dom, seeds=1)


def run_counting_probes(monkeypatch, dom, screen, seeds, cap=None):
    """optimize_two on the remark classes with the Temple screen on or off,
    under MAX_FIXED_POINT_ITERS = cap if given; returns the report and the
    number of warm solves it ran."""
    warm = []

    def solve(*args, **kwargs):
        warm.append(kwargs.get("u0") is not None)
        return principal_positive_eigenvalue(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(optimize, "principal_positive_eigenvalue", solve)
        if not screen:
            mp.setattr(optimize, "temple_swap_bounds",
                       lambda m, pair, swaps: np.full(len(swaps), np.inf))
        if cap is not None:
            mp.setattr(optimize, "MAX_FIXED_POINT_ITERS", cap)
        report = optimize_two(dom, *remark_classes(dom), seeds=seeds)
    return report, sum(warm)


def same_run(a, b):
    return (a.weight.values.tobytes() == b.weight.values.tobytes()
            and a.lambda_history == b.lambda_history
            and a.final.lambda1 == b.final.lambda1
            and a.stabilized == b.stabilized)


class TestTempleScreen:
    @pytest.mark.parametrize("dom", [make_rectangle(12, 12, 1 / 12), make_box(1.0, 1.0, 16),
                                     make_rectangle(6, 5, 0.5), make_box(1.0, 1.0, 8)],
                             ids=["rect12", "box16", "rect6x5", "box8"])
    def test_screen_changes_only_the_solve_count(self, monkeypatch, dom):
        off, probes_off = run_counting_probes(monkeypatch, dom, screen=False, seeds=4)
        on, probes_on = run_counting_probes(monkeypatch, dom, screen=True, seeds=4)
        assert same_run(on, off)
        assert probes_on < probes_off

    @pytest.mark.parametrize("dom", [make_rectangle(12, 12, 1 / 12), make_rectangle(6, 5, 0.5)],
                             ids=["rect12", "rect6x5"])
    def test_screened_probe_counts_against_the_cap(self, monkeypatch, dom):
        # every cap up to a full run's solve count; the caps that stop inside
        # a polish round's screened rejections decide whether the run reaches
        # the swap that round accepts (16 rejections first on the 12 x 12
        # rectangle)
        _, total = run_counting_probes(monkeypatch, dom, screen=False, seeds=1)
        fewer = 0
        for cap in range(1, total + 2):
            off, probes_off = run_counting_probes(monkeypatch, dom, False, 1, cap)
            on, probes_on = run_counting_probes(monkeypatch, dom, True, 1, cap)
            assert same_run(on, off), cap
            fewer += probes_on < probes_off
        assert fewer > 0


@pytest.mark.parametrize("n, cap", [(30, 30), (64, 64), (65, 8), (400, 8), (401, 2),
                                    (1024, 2)])
def test_swap_candidates_cap_per_level_pair(n, cap):
    # three levels of 1, n // 3 and the remaining cells: a level pair gets
    # min(cap, |a|, |b|) swaps, the t-th weakest a-cell with the t-th
    # strongest b-cell, and the middle pair shows a cap below its sizes
    rng = np.random.default_rng(n)
    sizes = {1.0: 1, 0.0: n // 3, -1.0: n - 1 - n // 3}
    values = rng.permutation(np.repeat(list(sizes), list(sizes.values())))
    u = rng.random(n) + 0.5
    swaps = _swap_candidates(values, u)
    expected = {(a, b): min(cap, sizes[a], sizes[b]) for a, b in combinations(sizes, 2)}
    assert Counter((values[i], values[j]) for i, j in swaps) == expected
    for (a, b), k in expected.items():
        a_cells = np.flatnonzero(values == a)
        b_cells = np.flatnonzero(values == b)
        weakest_a = a_cells[np.argsort(u[a_cells])][:k]
        strongest_b = b_cells[np.argsort(-u[b_cells])][:k]
        assert [s for s in swaps if (values[s[0]], values[s[1]]) == (a, b)] == list(
            zip(weakest_a.tolist(), strongest_b.tolist()))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 500), levels=st.sets(st.sampled_from([2.0, 1.0, 0.0, -1.0]),
                                               min_size=1, max_size=4),
       tied=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_swap_candidates_match_the_per_level_loop(n, levels, tied, seed):
    # ties in u, and +0.0 and -0.0 in one level, keep the loop's order
    rng = np.random.default_rng(seed)
    m = rng.choice(sorted(levels), n)
    zero = m == 0
    m[zero] = np.copysign(0.0, rng.choice([1.0, -1.0], zero.sum()))
    u = rng.integers(1, 5, n) / 4.0 if tied else rng.random(n) + 0.5
    swaps = _swap_candidates(m, u)
    assert swaps == reference_swap_candidates(m, u)
    assert all(type(c) is int for swap in swaps for c in swap)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the shortlist pairs cell 17 with cell 11, not with cell 1")
def test_polish_round_finds_the_one_improving_swap():
    # the higher of the two optima that the class (1, 1, 1.25) reaches on the
    # 6 x 5 rectangle, the winner of optimize_single at seeds=2, rng_seed=1:
    # of its 216 cross-level swaps only (1, 17) lowers λ₁, to the class's
    # global minimum, and it is not among the 12 shortlisted ones
    dom = make_rectangle(6, 5, 0.5)
    rows = ["--+++-", "-++++-", "-+++++", "-++++-", "--++--"]
    m0 = dom.field(np.array([1.0 if c == "+" else -1.0 for c in "".join(rows)]))
    pair0 = principal_positive_eigenvalue(dom, m0)
    # not an assert: a moved optimum must fail the test, not count as the xfail
    if pair0.lambda1 != pytest.approx(2.251316376089483, rel=1e-12):
        pytest.fail(f"the planted optimum moved: {pair0.lambda1!r}")
    move = optimize._polish_round(m0, pair0, optimize.MAX_FIXED_POINT_ITERS)
    assert move is not None
    m, pair, _ = move
    assert np.flatnonzero(m.values != m0.values).tolist() == [1, 17]
    assert pair.lambda1 == pytest.approx(2.251126019304257, rel=1e-12)


def _moves(reason):
    return pytest.mark.xfail(raises=AssertionError, strict=True, reason=reason)


@pytest.mark.parametrize("dom, tag, nudge", [
    (make_rectangle(6, 5, 0.5), 2, 1.0 + 2.0**-52),
    pytest.param(make_rectangle(6, 5, 0.5), 2, 1.0 - 2.0**-53,
                 marks=_moves("8 of 200 end at the other local optimum")),
    (make_rectangle(7, 7, 1 / 8), 3, 1.0 + 2.0**-52),
    pytest.param(make_rectangle(7, 7, 1 / 8), 3, 1.0 - 2.0**-53,
                 marks=_moves("2 of 200 end at another local optimum")),
], ids=["6x5-up", "6x5-down", "7x7-up", "7x7-down"])
def test_optimum_is_a_property_of_the_input(monkeypatch, dom, tag, nudge):
    # 200 runs at workload seed 7 (tiny-cli's ops on its 6 x 5 rectangle),
    # as they are and with the dense path's dsyevr eigenvector scaled by the
    # nudge, which moves λ and u by rounding only: the descent and polish
    # must reach the same weight.  Runs that reach two mirror images of one
    # optimum agree, since the winner is written as its least image
    seeds = np.random.default_rng([7, tag]).integers(0, 2**31, 200).tolist()

    def weights():
        return [optimize_single(dom, (1.0, 1.0, dom.total_measure / 6), 2,
                                rng_seed=s).weight.values.tobytes() for s in seeds]

    plain = weights()
    dsyevr = weightopt.eig.dsyevr

    def nudged(*args, **kwargs):
        mus, y, *rest = dsyevr(*args, **kwargs)
        return (mus, y * nudge, *rest)

    monkeypatch.setattr(weightopt.eig, "dsyevr", nudged)
    assert weights() == plain


def _annulus_15():
    i = np.arange(15) - 7
    r = np.hypot(i[:, None], i)
    return from_mask((2.5 <= r) & (r <= 6), 0.1)


def _box_8_less_one_cell():
    # inner cell (0, 1) lies on no center line and no diagonal of the block
    mask = make_box(1.0, 1.0, 8).mask.copy()
    mask[1, 2] = False
    return from_mask(mask, 1 / 9)


class TestMirrorMaps:
    @pytest.mark.parametrize("dom, count", [
        (make_rectangle(6, 5, 0.5), 3),
        (make_box(1.0, 1.0, 8), 7),
        (make_ellipse(13, 11, 0.1, (0.6, 0.5)), 3),
        (_annulus_15(), 7),
        (_box_8_less_one_cell(), 0),
    ], ids=["rect6x5", "box8", "ellipse13x11", "annulus15", "box8-less-one-cell"])
    def test_maps_leave_the_stiffness_unchanged(self, dom, count):
        maps = dom.mirror_maps
        assert len(maps) == count
        assert dom.mirror_maps is maps  # found once per domain
        A = assemble_stiffness(dom)
        cells = np.arange(dom.n_cells)
        for p in maps:
            assert not p.flags.writeable
            assert np.array_equal(np.sort(p), cells)
            assert not np.array_equal(p, cells)
            B = A[p][:, p]
            assert B.shape == A.shape and (B != A).nnz == 0

    def test_key_of_an_orbit(self):
        dom = make_rectangle(6, 5, 0.5)
        maps = dom.mirror_maps
        key = optimize._orbit_key
        # an asymmetric arrangement shares its key, the smallest bytes of its
        # orbit, with each of its mirror images
        values = random_arrangement(dom.field(toy_profile([1.0, -1.0], [5, 25])),
                                    np.random.default_rng(3)).values
        orbit = [values, *(values[p] for p in maps)]
        assert len({v.tobytes() for v in orbit}) == 4
        assert {key(v, maps) for v in orbit} == {min(v.tobytes() for v in orbit)}
        # one that equals its mirror image across the vertical center line
        # (and no other) is keyed by its own bytes, as is its other image
        grid = np.full((5, 6), -1.0)
        grid[1, 1] = grid[1, 4] = grid[2, 2] = grid[2, 3] = 1.0
        sym = grid.ravel()
        images = [sym[p] for p in maps]
        assert sum(np.array_equal(v, sym) for v in images) == 1
        assert {key(v, maps) for v in [sym, *images]} == {v.tobytes() for v in [sym, *images]}
        assert len({key(v, maps) for v in [sym, *images]}) == 2


def test_mirror_probe_is_not_solved(monkeypatch):
    # a fixed point whose polish round offers two swaps the Temple screen
    # passes: one whose result is the fixed point's mirror image across the
    # vertical center line, which is not solved, and one that is not a
    # mirror image, which is
    dom = make_rectangle(6, 5, 0.5)

    def cell(row, col):
        return int(dom.index_map[row + 1, col + 1])

    values = np.full(dom.n_cells, -1.0)
    values[[cell(2, 2), cell(2, 3), cell(1, 2)]] = 1.0
    planted = dom.field(values)
    mirror_swap, other_swap = (cell(1, 2), cell(1, 3)), (cell(1, 2), cell(0, 0))
    solved = []

    def solve(domain, m, **kwargs):
        solved.append(m.values.tobytes())
        return principal_positive_eigenvalue(domain, m, **kwargs)

    monkeypatch.setattr(optimize, "random_arrangement", lambda profile, rng: planted)
    monkeypatch.setattr(optimize, "rearrangement_step", lambda profile, u: planted)
    monkeypatch.setattr(optimize, "_swap_candidates", lambda m, u: [mirror_swap, other_swap])
    monkeypatch.setattr(optimize, "temple_swap_bounds",
                        lambda m, pair, swaps: np.full(len(swaps), np.inf))
    monkeypatch.setattr(optimize, "principal_positive_eigenvalue", solve)
    report = optimize._minimize_over_class(dom.field(np.sort(values)[::-1]), 1, 0)

    def swapped(i, j):
        v = values.copy()
        v[i], v[j] = v[j], v[i]
        return v

    assert solved == [values.tobytes(), swapped(*other_swap).tobytes()]
    assert np.array_equal(swapped(*mirror_swap), values[dom.mirror_maps[1]])
    # the other swap does not lower λ₁, so the round ends the run
    assert report.lambda_history == [principal_positive_eigenvalue(dom, planted).lambda1]


def test_later_seed_ends_in_an_earlier_orbit(monkeypatch):
    # seed 1's random arrangement is the mirror image of seed 0's; A commutes
    # with the mirror maps, so seed 1's start, ranked by one A-solve of that
    # arrangement, lands in the orbit of seed 0's start, and seed 1 ends
    # before its first solve
    dom = make_rectangle(6, 5, 0.5)
    profile = combined_profile(dom, single_class((1.0, 1.0, dom.total_measure / 6)))
    first = random_arrangement(profile, np.random.default_rng([0, 0]))
    mirrored = dom.field(first.values[dom.mirror_maps[1]])
    solved = []

    def solve(*args, **kwargs):
        solved.append(None)
        return principal_positive_eigenvalue(*args, **kwargs)

    def run(starts):
        monkeypatch.setattr(optimize, "random_arrangement",
                            lambda profile, rng: starts.pop(0))
        solved.clear()
        return optimize._minimize_over_class(profile, 2 if len(starts) > 1 else 1, 0)

    monkeypatch.setattr(optimize, "principal_positive_eigenvalue", solve)
    alone = run([first])
    solves_alone = len(solved)
    both = run([first, mirrored])
    assert len(alone.lambda_history) > 1
    assert len(solved) == solves_alone  # seed 1 solves nothing
    assert same_run(both, alone)


def _planted_seeds(monkeypatch, *starts):
    """Each seed's start replaced by the next of `starts`, solved cold; the
    list of seeds started so far comes back, so a patch can tell them apart."""
    started = []

    def start(*args):
        started.append(None)
        return starts[len(started) - 1], None

    monkeypatch.setattr(optimize, "_start", start)
    return started


def test_later_seed_ends_where_its_descent_step_enters_an_earlier_orbit(monkeypatch):
    # seed 1 starts at a random arrangement T whose comonotone step Y is a
    # descent step; seed 0 starts at Y's mirror image, so seed 1's step
    # lands in an earlier orbit and seed 1 ends without solving it
    dom = make_rectangle(6, 5, 0.5)
    profile = combined_profile(dom, single_class((1.0, 1.0, dom.total_measure / 6)))
    t = random_arrangement(profile, np.random.default_rng(5))
    y = rearrangement_step(profile, principal_positive_eigenvalue(dom, t).u)
    mirror_y = dom.field(y.values[dom.mirror_maps[1]])
    solved = []

    def solve(domain, m, **kwargs):
        solved.append(m.values.tobytes())
        return principal_positive_eigenvalue(domain, m, **kwargs)

    def run(*starts):
        _planted_seeds(monkeypatch, *starts)
        solved.clear()
        return optimize._minimize_over_class(profile, len(starts), 0)

    monkeypatch.setattr(optimize, "principal_positive_eigenvalue", solve)
    run(t)
    assert solved[:2] == [t.values.tobytes(), y.values.tobytes()]  # alone, T solves Y
    assert mirror_y.values.tobytes() != y.values.tobytes()
    alone = run(mirror_y)
    solves_alone = len(solved)
    both = run(mirror_y, t)
    assert solved[solves_alone:] == [t.values.tobytes()]  # seed 1 solves T only
    assert same_run(both, alone)


def test_later_seed_ends_where_its_accepted_swap_enters_an_earlier_orbit(monkeypatch):
    # seed 0 starts at the mirror image of Z, the local optimum of the class
    # (1, 1, 1.25) that test_polish_round_finds_the_one_improving_swap
    # plants, and stays there.  Seed 1 starts at T, Z with one cell swap,
    # is held at T by the step and offered only the swap back to Z, which
    # its polish round accepts.  Z's λ is reported lower than seed 0's, so
    # seed 1 would win had it recorded it; it ends instead, with no step
    # from Z
    dom = make_rectangle(6, 5, 0.5)
    profile = combined_profile(dom, single_class((1.0, 1.0, 1.25)))
    rows = ["--+++-", "-++++-", "-+++++", "-++++-", "--++--"]
    z = dom.field(np.array([1.0 if c == "+" else -1.0 for c in "".join(rows)]))
    i, j = 2, 0  # a favourable cell of the top row, and the corner
    values = z.values.copy()
    values[i], values[j] = values[j], values[i]
    t = dom.field(values)
    mirror_z = dom.field(z.values[dom.mirror_maps[1]])
    step, candidates = optimize.rearrangement_step, optimize._swap_candidates
    solved, steps = [], []

    def run(*starts):
        started = _planted_seeds(monkeypatch, *starts)
        solved.clear()
        steps.clear()

        def solve(domain, m, **kwargs):
            pair = principal_positive_eigenvalue(domain, m, **kwargs)
            if len(started) < 2:
                return pair
            solved.append(m.values.tobytes())
            if m.values.tobytes() == z.values.tobytes():
                return dataclasses.replace(pair, lambda1=pair.lambda1 * (1.0 - 1e-6))
            return pair

        def held(*args):
            if len(started) < 2:
                return step(*args)
            steps.append(None)
            return t

        monkeypatch.setattr(optimize, "principal_positive_eigenvalue", solve)
        monkeypatch.setattr(optimize, "rearrangement_step", held)
        monkeypatch.setattr(optimize, "_swap_candidates",
                            lambda m, u: [(i, j)] if len(started) > 1 else candidates(m, u))
        return optimize._minimize_over_class(profile, len(starts), 0)

    alone = run(mirror_z)
    both = run(mirror_z, t)
    assert solved == [t.values.tobytes(), z.values.tobytes()]  # T, then the probe
    assert len(steps) == 1  # the step from T's eigenfunction only
    assert same_run(both, alone)


@pytest.mark.parametrize("m3, rng_seed", [(0.0, 0), (1.25, 4)], ids=["descent", "swaps"])
def test_budget_ends_on_a_recorded_move(monkeypatch, m3, rng_seed):
    # every cap up to a full run's solves plus probes, one seed, on runs
    # with accepted swaps (and a descent step at m3 = 0): the cap is never
    # passed, every move's λ is recorded, the last one's included, whether
    # it is a solve or an accepted swap, and the report is the history's best
    dom = make_rectangle(6, 5, 0.5)
    polish, screen = optimize._polish_round, optimize.temple_swap_bounds

    def run(cap):
        moves, probes, in_round = [], [], []

        def solve(domain, m, **kwargs):
            pair = principal_positive_eigenvalue(domain, m, **kwargs)
            if not in_round:
                moves.append(("solve", pair.lambda1))
            return pair

        def screened(m, pair, swaps):
            probes.append(len(swaps))
            return screen(m, pair, swaps)

        def polish_round(*args):
            in_round.append(None)
            move = polish(*args)
            in_round.clear()
            if move is not None:
                moves.append(("swap", move[1].lambda1))
                probes[-1] = move[2]
            return move

        with monkeypatch.context() as mp:
            mp.setattr(optimize, "principal_positive_eigenvalue", solve)
            mp.setattr(optimize, "temple_swap_bounds", screened)
            mp.setattr(optimize, "_polish_round", polish_round)
            mp.setattr(optimize, "MAX_FIXED_POINT_ITERS", cap)
            report = optimize_single(dom, (1.0, 1.0, m3), seeds=1, rng_seed=rng_seed)
        solves = sum(kind == "solve" for kind, _ in moves)
        return report, moves, solves + sum(probes)

    _, _, total = run(optimize.MAX_FIXED_POINT_ITERS)
    last_moves = set()
    for cap in range(1, total + 1):
        report, moves, used = run(cap)
        assert used <= cap, cap
        assert report.lambda_history == [lam for _, lam in moves], cap
        assert report.final.lambda1 == min(report.lambda_history), cap
        last_moves.add(moves[-1][0])
    assert last_moves == {"solve", "swap"}


def _reports_and_solves(monkeypatch, minimize, profile, rng_seed):
    solves = []

    def solve(*args, **kwargs):
        solves.append(None)
        return principal_positive_eigenvalue(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(optimize, "principal_positive_eigenvalue", solve)
        report = minimize(profile, 8, rng_seed)
    return report, len(solves)


@pytest.mark.parametrize("dom, classes, rng_seeds", [
    (make_rectangle(6, 5, 0.5), lambda dom: [single_class((1.0, 1.0, dom.total_measure / 6))],
     range(10)),
    (make_box(1.0, 1.0, 8), remark_classes, [0]),
    (make_box(1.0, 1.0, 8), lambda dom: [single_class((1.0, 1.0, dom.total_measure / 6))], [0]),
    (make_ellipse(13, 13, 1 / 12, (0.5, 0.5)), remark_classes, [0]),
    (make_ellipse(13, 13, 1 / 12, (0.5, 0.5)),
     lambda dom: [single_class((1.0, 1.0, dom.total_measure / 6))], [0]),
], ids=["rect6x5", "box8-two", "box8-merged", "disk-two", "disk-merged"])
def test_mirror_rules_change_only_the_solve_count(monkeypatch, dom, classes, rng_seeds):
    # with 8 seeds, the report is the one of the loop without the rules
    profile = combined_profile(dom, *classes(dom))
    total = total_reference = 0
    for rng_seed in rng_seeds:
        report, solves = _reports_and_solves(monkeypatch, optimize._minimize_over_class,
                                             profile, rng_seed)
        reference, reference_solves = _reports_and_solves(
            monkeypatch, reference_minimize_over_class, profile, rng_seed)
        assert same_run(report, reference), rng_seed
        assert solves <= reference_solves
        total, total_reference = total + solves, total_reference + reference_solves
    assert total < total_reference
