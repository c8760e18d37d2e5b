import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightopt.grid import from_mask, make_ellipse, make_rectangle
from weightopt.steiner import (
    SteinerAxisError,
    row_sections,
    symmetrize_function,
    symmetrize_set,
    symmetry_defect,
)

from conftest import indicator, reflect_field, rng_field


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
        out = symmetrize_function(dom, dom.field([0.0, 2.0, 1.0]))
        assert np.array_equal(out.values, [1.0, 2.0, 0.0])

    def test_symmetric_decreasing_unchanged(self):
        dom = line(5)
        f = dom.field([0.0, 1.0, 3.0, 1.0, 0.0])
        assert np.array_equal(symmetrize_function(dom, f).values, f.values)

    def test_indicator_matches_set_rule(self, ellipse):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sel = rng.random(ellipse.n_cells) < 0.5
            chi = indicator(ellipse, ellipse.cells_to_mask(sel))
            via_fun = symmetrize_function(ellipse, chi)
            via_set = symmetrize_set(ellipse, ellipse.cells_to_mask(sel))
            assert np.array_equal(via_fun.values, indicator(ellipse, via_set).values)

    def test_row_unimodal_with_axis_peak(self, ellipse):
        rng = np.random.default_rng(2)
        f = rng_field(ellipse, rng)
        out = symmetrize_function(ellipse, f).to_grid()
        for sec in row_sections(ellipse):
            row = out[sec.row, sec.col_start:sec.col_stop]
            k = int(np.argmax(row))
            assert (np.diff(row[: k + 1]) >= 0).all()
            assert (np.diff(row[k:]) <= 0).all()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=15))
    def test_equimeasurable_and_idempotent(self, vals):
        dom = line(len(vals))
        f = dom.field([v / 2.0 for v in vals])
        fs = symmetrize_function(dom, f)
        assert np.array_equal(np.sort(fs.values), np.sort(f.values))
        assert np.array_equal(symmetrize_function(dom, fs).values, fs.values)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=15),
           st.integers(-8, 8))
    def test_superlevel_consistency(self, vals, thresh):
        dom = line(len(vals))
        f = dom.field([float(v) for v in vals])
        fs = symmetrize_function(dom, f)
        lhs = dom.cells_to_mask(fs.values > thresh)
        rhs = symmetrize_set(dom, dom.cells_to_mask(f.values > thresh))
        assert np.array_equal(lhs, rhs)

    def test_mirror_invariance_of_the_map(self, ellipse):
        rng = np.random.default_rng(3)
        f = rng_field(ellipse, rng)
        fs = symmetrize_function(ellipse, f)
        fs_mirror = symmetrize_function(ellipse, reflect_field(f))
        assert np.array_equal(fs.values, fs_mirror.values)


class TestSymmetryDefect:
    def test_zero_for_symmetric(self, ellipse):
        rng = np.random.default_rng(4)
        fs = symmetrize_function(ellipse, rng_field(ellipse, rng))
        assert symmetry_defect(ellipse, fs) == 0.0

    def test_left_half_vs_centered_band(self):
        dom = make_rectangle(8, 6, 0.5)
        left = indicator(dom, dom.cells_to_mask(dom.cell_cols <= 4))
        band = indicator(dom, dom.cells_to_mask(
            (dom.cell_cols >= 3) & (dom.cell_cols <= 6)))
        assert symmetry_defect(dom, band) == 0.0
        assert symmetry_defect(dom, left) > 0.0

    def test_mirror_defect_within_parity_slack(self, ellipse):
        rng = np.random.default_rng(5)
        f = rng_field(ellipse, rng)
        d1 = symmetry_defect(ellipse, f)
        d2 = symmetry_defect(ellipse, reflect_field(f))
        n_rows = len(row_sections(ellipse))
        slack = (
            2.0 * n_rows * ellipse.cell_area * np.abs(f.values).max()
            / max(np.abs(f.values).sum() * ellipse.cell_area, 1e-30)
        )
        assert abs(d1 - d2) <= slack


class TestRowSections:
    def test_centered_intervals(self, ellipse):
        for sec in row_sections(ellipse):
            assert sec.col_start + (sec.col_stop - 1) == ellipse.axis.center2

    def test_rejects_split_rows(self):
        mask = np.zeros((3, 8), dtype=bool)
        mask[1, [1, 2, 5, 6]] = True  # symmetric but not a single interval
        dom = from_mask(mask, 1.0)
        assert dom.axis is not None
        with pytest.raises(SteinerAxisError):
            row_sections(dom)
