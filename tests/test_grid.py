import gc
import weakref

import numpy as np
import pytest

from weightopt.grid import (
    GridDomain,
    ScalarField,
    from_mask,
    make_box,
    make_ellipse,
    make_rectangle,
    transpose_field,
)

from conftest import reflect_field


def test_rectangle_measure_bookkeeping():
    assert make_rectangle(3, 3, 1.0).total_measure == 9.0
    assert make_rectangle(64, 64, 1 / 64).total_measure == pytest.approx(1.0, abs=1e-15)


def test_rectangle_minimum_size():
    with pytest.raises(ValueError):
        make_rectangle(2, 3, 1.0)
    with pytest.raises(ValueError):
        make_rectangle(3, 3, 0.0)


@pytest.mark.parametrize("build, match", [
    (lambda: GridDomain(np.ones((3, 3, 3), dtype=bool), 1.0), "2D"),
    (lambda: from_mask(np.ones(4, dtype=bool), 1.0), "2D"),
    (lambda: make_rectangle(3, 3, 1.0).subset_cells(np.ones((4, 4), dtype=bool)), "shape"),
    (lambda: make_rectangle(3, 3, 1.0).cells_to_mask(np.ones(8, dtype=bool)), "one entry"),
    (lambda: make_ellipse(2, 5, 1.0, (1.0, 1.0)), "3x3"),
    (lambda: make_ellipse(5, 5, 0.0, (1.0, 1.0)), "positive"),
    (lambda: make_box(1.0, 1.0, 3), "at least 4"),
], ids=["domain-mask-3d", "from-mask-1d", "subset-of-another-grid", "selector-too-short",
        "ellipse-grid-too-small", "ellipse-spacing-zero", "box-resolution-3"])
def test_guards_reject_bad_input(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_rectangle_padding_and_axis():
    dom = make_rectangle(5, 4, 0.5)
    assert dom.shape == (6, 7)
    assert not dom.mask[0].any() and not dom.mask[-1].any()
    assert dom.axis is not None
    assert dom.axis == 6  # 7 columns -> axis through column 3
    dom_even = make_rectangle(4, 4, 0.5)
    assert dom_even.axis == 5  # 6 columns -> axis between columns 2 and 3


def test_circle_measure_close_to_pi_over_4():
    dom = make_ellipse(65, 65, 1 / 64, (0.5, 0.5))
    assert dom.total_measure == pytest.approx(np.pi / 4, rel=0.02)


def test_ellipse_errors():
    with pytest.raises(ValueError):
        make_ellipse(65, 65, 1 / 64, (0.5, 0.0))
    with pytest.raises(ValueError, match="grid edge"):
        make_ellipse(65, 65, 1 / 64, (0.6, 0.3))  # reaches the outer ring


def test_every_grid_disk_builds():
    # the disk of `--grid n`: (n+1)² cells of side 1/n, radius 0.5; a center
    # on the circle within rounding (n = 98, 196, ...) counts as outside
    for n in range(4, 300):
        dom = make_ellipse(n + 1, n + 1, 1 / n, (0.5, 0.5))
        offsets = 2 * np.arange(n + 1) - n
        inside = offsets[:, None] ** 2 + offsets[None, :] ** 2 < n * n
        assert np.array_equal(dom.mask, inside), n
        assert dom.axis is not None


def test_ellipse_symmetric_both_axes():
    dom = make_ellipse(129, 65, 1 / 128, (0.5, 0.25))
    assert np.array_equal(dom.mask, dom.mask[:, ::-1])
    assert np.array_equal(dom.mask, dom.mask[::-1, :])


def test_measure_rejects_outside_cells():
    dom = make_ellipse(9, 9, 1.0, (3.0, 3.0))
    bad = np.ones(dom.shape, dtype=bool)
    with pytest.raises(ValueError):
        dom.subset_cells(bad)


def test_reflection_bijective_on_symmetric_domain():
    dom = make_ellipse(17, 13, 0.25, (1.5, 1.0))
    rng = np.random.default_rng(1)
    f = dom.field(rng.normal(size=dom.n_cells))
    g = reflect_field(reflect_field(f))
    assert np.array_equal(f.values, g.values)
    assert np.array_equal(np.sort(f.values), np.sort(reflect_field(f).values))


def test_field_validation():
    dom = make_rectangle(3, 3, 1.0)
    with pytest.raises(ValueError):
        ScalarField(dom, np.ones(4))
    with pytest.raises(ValueError):
        ScalarField(dom, np.full(dom.n_cells, np.inf))
    f = dom.constant_field(2.0)
    assert f.integral() == pytest.approx(18.0)
    assert f.values.max() == f.values.min() == 2.0
    with pytest.raises(ValueError):
        f.values[0] = 1.0  # immutable


def test_from_mask_pads_and_detects_axis():
    mask = np.ones((2, 4), dtype=bool)
    dom = from_mask(mask, 1.0)
    assert dom.shape == (4, 6)
    assert dom.n_cells == 8
    assert dom.axis is not None
    asym = np.zeros((4, 5), dtype=bool)
    asym[1:3, 1:3] = True
    assert from_mask(asym, 1.0).axis is None


def test_domain_invariants_enforced():
    mask = np.ones((3, 3), dtype=bool)
    with pytest.raises(ValueError):
        GridDomain(mask, 1.0)  # touches the border
    with pytest.raises(ValueError):
        GridDomain(np.zeros((3, 3), dtype=bool), 1.0)


def test_domain_leaves_the_callers_mask_writable():
    m = np.zeros((5, 5), dtype=bool)
    m[1:4, 1:4] = True
    dom = GridDomain(m, 1.0)
    assert m.flags.writeable
    m[2, 2] = False  # the caller edits its own array; the domain keeps its copy
    assert dom.mask[2, 2] and dom.n_cells == 9
    with pytest.raises(ValueError):
        dom.mask[2, 2] = False


def test_transpose_roundtrip():
    dom = make_box(2.0, 1.0, 8)
    rng = np.random.default_rng(2)
    f = dom.field(rng.normal(size=dom.n_cells))
    tf = transpose_field(f)
    assert np.array_equal(tf.domain.mask, dom.mask.T) and tf.domain.h == dom.h
    back = transpose_field(tf)
    assert np.array_equal(back.domain.mask, dom.mask)
    assert np.array_equal(back.values, f.values)


def test_transposed_field_does_not_keep_its_source_alive():
    dom = make_box(2.0, 1.0, 8)
    tf = transpose_field(dom.constant_field(1.0))
    assert tf.domain.axis is not None
    ref = weakref.ref(dom)
    gc.disable()  # freed by reference counts alone: no reference back
    try:
        del dom
        assert ref() is None
    finally:
        gc.enable()


def test_make_box_unit_square_cells():
    dom = make_box(1.0, 1.0, 64)
    assert dom.n_cells == 64 * 64
    assert dom.h == pytest.approx(1 / 65)
