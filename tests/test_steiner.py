import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weightopt.grid import from_mask, make_ellipse, make_rectangle
from weightopt.steiner import (
    SteinerAxisError,
    symmetrize_function,
    symmetrize_set,
    symmetry_defect,
)

from conftest import (
    indicator,
    reflect_field,
    rng_field,
    row_intervals,
    steiner_reference,
    steiner_set_reference,
)


def line(n):
    return from_mask(np.ones((1, n), dtype=bool), 1.0)


@pytest.fixture
def ellipse():
    return make_ellipse(17, 13, 0.25, (1.5, 1.0))


class TestSymmetrizeSet:
    def test_three_cells_recentred(self):
        dom = line(9)
        mask = np.zeros(dom.shape, dtype=bool)
        mask[1, [3, 6, 8]] = True  # grid cols 3,6,8 = domain cols 2,5,7
        out = symmetrize_set(dom, mask)
        assert set(np.flatnonzero(out[1])) == {4, 5, 6}

    def test_full_and_empty_rows(self, ellipse):
        assert np.array_equal(symmetrize_set(ellipse, ellipse.mask), ellipse.mask)
        empty = np.zeros(ellipse.shape, dtype=bool)
        assert not symmetrize_set(ellipse, empty).any()

    def test_parity_extra_cell_left(self):
        dom = line(9)  # row interval cols 1..9, axis at col 5
        mask = np.zeros(dom.shape, dtype=bool)
        mask[1, [1, 2]] = True
        out = symmetrize_set(dom, mask)
        assert set(np.flatnonzero(out[1])) == {4, 5}  # extra cell on the left

    def test_measure_preserved(self, ellipse):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sel = rng.random(ellipse.n_cells) < rng.random()
            mask = ellipse.cells_to_mask(sel)
            out = symmetrize_set(ellipse, mask)
            assert out.sum() == mask.sum()
            assert not (out & ~ellipse.mask).any()

    def test_missing_axis(self):
        blob = np.zeros((5, 6), dtype=bool)
        blob[1:4, 1:4] = True
        dom = from_mask(blob, 1.0)
        with pytest.raises(SteinerAxisError):
            symmetrize_set(dom, dom.cells_to_mask(np.ones(dom.n_cells, bool)))


class TestSymmetrizeFunction:
    def test_left_first_rule(self):
        dom = line(3)
        out = symmetrize_function(dom.field([0.0, 2.0, 1.0]))
        assert np.array_equal(out.values, [1.0, 2.0, 0.0])

    @pytest.mark.parametrize("values, expected", [([0.0, -0.0, 1.0], [0.0, 1.0, -0.0]),
                                                  ([-0.0, 0.0, 1.0], [-0.0, 1.0, 0.0])])
    def test_signed_zeros_keep_column_order(self, values, expected):
        # +0.0 and -0.0 are equal values: the leftmost takes the place nearer
        # the axis, here the left one of the pair beside the peak
        dom = line(3)
        out = symmetrize_function(dom.field(values))
        assert out.values.tobytes() == np.array(expected).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), ellipse=st.booleans(), nx=st.integers(3, 16),
           ny=st.integers(3, 12), seed=st.integers(0, 2**32 - 1))
    def test_matches_row_by_row_reference(self, data, ellipse, nx, ny, seed):
        # odd and even nx put the axis on a cell column and between two;
        # five values, +0.0 and -0.0 among them, give most rows ties
        if ellipse:
            a, b = (data.draw(st.floats(0.5, 1.0)) * (k - 1) * 0.25 / 2 for k in (nx, ny))
            dom = make_ellipse(nx, ny, 0.25, (a, b))
        else:
            dom = make_rectangle(nx, ny, 0.25)
        rng = np.random.default_rng(seed)
        f = dom.field(rng.choice(np.array([1.0, 0.5, 0.0, -0.0, -1.0]), dom.n_cells))
        out = symmetrize_function(f)
        assert out.values.tobytes() == steiner_reference(dom, f).values.tobytes()

    def test_symmetric_decreasing_unchanged(self):
        dom = line(5)
        f = dom.field([0.0, 1.0, 3.0, 1.0, 0.0])
        assert np.array_equal(symmetrize_function(f).values, f.values)

    def test_indicator_matches_set_rule(self, ellipse):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sel = rng.random(ellipse.n_cells) < 0.5
            chi = indicator(ellipse, ellipse.cells_to_mask(sel))
            via_fun = symmetrize_function(chi)
            via_set = symmetrize_set(ellipse, ellipse.cells_to_mask(sel))
            assert np.array_equal(via_fun.values, indicator(ellipse, via_set).values)

    def test_row_unimodal_with_axis_peak(self, ellipse):
        rng = np.random.default_rng(2)
        f = rng_field(ellipse, rng)
        out = symmetrize_function(f).to_grid()
        for r, start, stop in row_intervals(ellipse):
            row = out[r, start:stop]
            k = int(np.argmax(row))
            assert (np.diff(row[: k + 1]) >= 0).all()
            assert (np.diff(row[k:]) <= 0).all()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=15))
    def test_equimeasurable_and_idempotent(self, vals):
        dom = line(len(vals))
        f = dom.field([v / 2.0 for v in vals])
        fs = symmetrize_function(f)
        assert np.array_equal(np.sort(fs.values), np.sort(f.values))
        assert np.array_equal(symmetrize_function(fs).values, fs.values)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=15),
           st.integers(-8, 8))
    def test_superlevel_consistency(self, vals, thresh):
        dom = line(len(vals))
        f = dom.field([float(v) for v in vals])
        fs = symmetrize_function(f)
        lhs = dom.cells_to_mask(fs.values > thresh)
        rhs = symmetrize_set(dom, dom.cells_to_mask(f.values > thresh))
        assert np.array_equal(lhs, rhs)

    def test_mirror_invariance_of_the_map(self, ellipse):
        rng = np.random.default_rng(3)
        f = rng_field(ellipse, rng)
        fs = symmetrize_function(f)
        fs_mirror = symmetrize_function(reflect_field(f))
        assert np.array_equal(fs.values, fs_mirror.values)


class TestSymmetryDefect:
    def test_zero_for_symmetric(self, ellipse):
        rng = np.random.default_rng(4)
        fs = symmetrize_function(rng_field(ellipse, rng))
        assert symmetry_defect(fs) == 0.0

    def test_left_half_vs_centered_band(self):
        dom = make_rectangle(8, 6, 0.5)
        left = indicator(dom, dom.cells_to_mask(dom.cell_cols <= 4))
        band = indicator(dom, dom.cells_to_mask(
            (dom.cell_cols >= 3) & (dom.cell_cols <= 6)))
        assert symmetry_defect(band) == 0.0
        assert symmetry_defect(left) > 0.0

    def test_mirror_defect_within_parity_slack(self, ellipse):
        rng = np.random.default_rng(5)
        f = rng_field(ellipse, rng)
        d1 = symmetry_defect(f)
        d2 = symmetry_defect(reflect_field(f))
        n_rows = len(row_intervals(ellipse))
        slack = (
            2.0 * n_rows * ellipse.cell_area * np.abs(f.values).max()
            / max(np.abs(f.values).sum() * ellipse.cell_area, 1e-30)
        )
        assert abs(d1 - d2) <= slack

    def test_scale_invariant_up_to_the_largest_doubles(self):
        # Σ|f| of the field times 2**1020 overflows unless the defect rescales
        dom = make_rectangle(6, 5, 0.5)
        f = dom.field(np.random.default_rng(6).choice([-1.0, 1.0], dom.n_cells))
        d = symmetry_defect(f)
        assert d > 0.0
        assert symmetry_defect(dom.field(np.ldexp(f.values, 1020))) == d


class TestRowSections:
    def test_centered_intervals(self, ellipse):
        for _, start, stop in row_intervals(ellipse):
            assert start + (stop - 1) == ellipse.axis

    def test_rejects_split_rows(self):
        mask = np.zeros((3, 8), dtype=bool)
        mask[1, [1, 2, 5, 6]] = True  # symmetric but not a single interval
        dom = from_mask(mask, 1.0)
        assert dom.axis is None
        with pytest.raises(SteinerAxisError):
            symmetrize_function(dom.constant_field(1.0))

    @settings(max_examples=200, deadline=None)
    @given(half=arrays(bool, st.tuples(st.integers(1, 6), st.integers(1, 6))),
           runs=st.booleans(), odd=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_axis_iff_rows_are_intervals(self, half, runs, odd, seed):
        # a random left half mirrored about its last column (odd row widths)
        # or about its right edge (even); with `runs`, each half-row is
        # pushed against the axis, so every row is one interval
        if runs:
            half = np.arange(half.shape[1]) >= half.shape[1] - half.sum(axis=1, keepdims=True)
        if not half.any():
            return
        dom = from_mask(np.hstack([half, half[:, -1 - odd::-1]]), 1.0)
        intervals = all(np.ptp(c) + 1 == c.size for c in map(np.flatnonzero, dom.mask) if c.size)
        assert (dom.axis is not None) == intervals
        assert intervals or not runs
        if dom.axis is None:
            return
        rng = np.random.default_rng(seed)
        for p in (0.0, 0.3, 0.7, 1.0, rng.random()):
            sub = dom.cells_to_mask(rng.random(dom.n_cells) < p)
            assert np.array_equal(symmetrize_set(dom, sub), steiner_set_reference(dom, sub))
