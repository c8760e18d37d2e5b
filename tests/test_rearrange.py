import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weightopt.rearrange
from weightopt.grid import from_mask, make_rectangle
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

from conftest import reflect_field, rng_field


def line_domain(n, h=1.0):
    return from_mask(np.ones((1, n), dtype=bool), h)


# few distinct values, so draws tie often; ±0.0 compare equal
tie_values = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])

dyadic_lists = st.lists(
    st.integers(min_value=-32, max_value=32).map(lambda k: k / 8.0),
    min_size=1, max_size=24,
)


class TestDecreasingRearrangement:
    def test_sorting(self):
        dom = line_domain(3)
        prof = decreasing_rearrangement(dom.field([3.0, 1.0, 2.0]))
        assert np.array_equal(prof, [3.0, 2.0, 1.0])
        assert not prof.flags.writeable

    def test_constant_single_step(self):
        dom = make_rectangle(4, 3, 0.5)
        prof = decreasing_rearrangement(dom.constant_field(2.5))
        assert prof.shape == (dom.n_cells,)
        assert (prof == 2.5).all()

    def test_bang_bang_profile(self):
        # m1 on E, -m2 elsewhere rearranges to m1 on (0,e), -m2 on (e,|Omega|)
        dom = make_rectangle(4, 4, 0.5)
        sel = np.zeros(dom.n_cells, dtype=bool)
        sel[[1, 5, 6, 10, 12]] = True
        m = dom.field(np.where(sel, 2.0, -1.0))
        prof = decreasing_rearrangement(m)
        assert np.array_equal(prof, np.repeat([2.0, -1.0], [5, 11]))

    @settings(max_examples=60, deadline=None)
    @given(values=dyadic_lists)
    def test_preserves_integral_and_bounds(self, values):
        dom = line_domain(len(values))
        f = dom.field(values)
        prof = decreasing_rearrangement(f)
        assert prof.sum() * dom.cell_area == pytest.approx(f.integral(), abs=1e-12)
        assert prof[0] == f.values.max()
        assert prof[-1] == f.values.min()
        assert (np.diff(prof) <= 0).all()


class TestEquimeasurable:
    def test_permutation(self):
        dom = line_domain(3)
        assert equimeasurable(dom.field([1.0, 2.0, 3.0]), dom.field([3.0, 1.0, 2.0]))
        assert not equimeasurable(dom.field([1.0, 2.0, 3.0]), dom.field([1.0, 2.0, 2.0]))

    def test_reflection_equimeasurable(self):
        dom = make_rectangle(5, 4, 0.5)
        rng = np.random.default_rng(3)
        f = rng_field(dom, rng)
        assert equimeasurable(f, reflect_field(f))

    def test_measure_mismatch(self):
        with pytest.raises(ValueError, match="share a domain"):
            equimeasurable(line_domain(3).constant_field(1.0),
                           line_domain(4).constant_field(1.0))

    def test_across_discretizations(self):
        # same total measure 2.0, but profiles compare cell by cell only
        coarse = line_domain(2, h=1.0)
        fine = line_domain(8, h=0.5)
        f = coarse.field([1.0, 0.0])
        g = fine.field([1.0] * 4 + [0.0] * 4)
        with pytest.raises(ValueError, match="share a domain"):
            equimeasurable(f, g)
        with pytest.raises(ValueError, match="share a domain"):
            precedes(f, g)


class TestPrecedes:
    def test_hand_computed(self):
        dom = line_domain(2)
        g = dom.field([2.0, 2.0])
        f = dom.field([3.0, 1.0])
        assert precedes(g, f)
        assert not precedes(f, g)

    def test_reflexive(self):
        dom = line_domain(5)
        f = dom.field([0.5, -1.0, 2.0, 2.0, 0.25])
        assert precedes(f, f)

    def test_mean_constant_precedes(self):
        dom = make_rectangle(5, 3, 1.0)
        rng = np.random.default_rng(4)
        f = rng_field(dom, rng)
        c = dom.constant_field(f.integral() / dom.total_measure)
        assert precedes(c, f)

    @settings(max_examples=60, deadline=None)
    @given(values=dyadic_lists, data=st.data())
    def test_mutual_precedence_is_equimeasurability(self, values, data):
        dom = line_domain(len(values))
        f = dom.field(values)
        perm = data.draw(st.permutations(list(range(len(values)))))
        g = dom.field(np.asarray(values)[perm])
        assert precedes(g, f) and precedes(f, g)
        assert equimeasurable(f, g)

    @settings(max_examples=60, deadline=None)
    @given(values=dyadic_lists)
    def test_transitive_through_mean(self, values):
        # c (global mean) ≺ block means ≺ f
        dom = line_domain(len(values))
        f = dom.field(values)
        half = len(values) // 2
        if half == 0:
            blocks = np.full(len(values), np.mean(values))
        else:
            blocks = np.concatenate([
                np.full(half, np.mean(values[:half])),
                np.full(len(values) - half, np.mean(values[half:])),
            ])
        g = dom.field(blocks)
        c = dom.constant_field(f.integral() / dom.total_measure)
        assert precedes(g, f)
        assert precedes(c, g)
        assert precedes(c, f)


def largest_sums(values):
    """max over k-cell subsets of the sum, for k = 1 .. n."""
    n = len(values)
    return [max(sum(c) for c in itertools.combinations(values, k)) for k in range(1, n + 1)]


class TestPrecedesDefinition:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 7), balance=st.booleans())
    def test_against_largest_subset_sums(self, data, n, balance):
        # g ≺ f iff for every k the largest k-cell sum of g is at most that
        # of f, and the totals are equal; halves keep every sum exact
        halves = st.lists(st.integers(-6, 6).map(lambda k: k / 2), min_size=n, max_size=n)
        f, g = data.draw(halves), data.draw(halves)
        if balance:
            g[-1] = sum(f) - sum(g[:-1])
        sf, sg = largest_sums(f), largest_sums(g)
        expected = sf[-1] == sg[-1] and all(a <= b for a, b in zip(sg, sf))
        dom = line_domain(n)
        assert precedes(dom.field(g), dom.field(f)) == expected


class TestResourceClass:
    def test_resource_class_validation(self):
        with pytest.raises(ValueError):
            ResourceClass(p=1.0, q=1.0, l=3.0).e(2.0)  # l = q|Omega| + 1
        with pytest.raises(ValueError):
            ResourceClass(p=0.0, q=0.0, l=0.0).e(2.0)
        cls = ResourceClass(p=0.0, q=1.0, l=0.5)
        assert cls.e(2.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("p, q, l", [(1e308, 1e308, 0.0), (0.0, 1e308, 1e307),
                                         (1e308, 0.0, -1e307), (1.3e307, 1.3e307, 9e307)],
                             ids=["p-plus-q", "q-mass", "p-mass", "level-set-measure"])
    def test_constants_that_overflow_a_double(self, p, q, l):
        # p + q, q|Omega|, p|Omega| or p|Omega| + l is inf on a measure of 7.5
        with pytest.raises(ValueError, match="overflow a double"):
            ResourceClass(p, q, l).e(7.5)


@pytest.mark.parametrize("call, message", [
    (lambda f, g: ResourceClass(p=0.0, q=1.0, l=0.5).e(0.0), "infeasible constants"),
    (hl_inner, "share a domain"),
    (hl_pairing, "share a domain"),
    (lambda f, g: pair_family([]), "at least one field"),
    (lambda f, g: comonotone(f.values, g.values[:-1]), "mismatched shapes"),
], ids=["class-on-measure-0", "hl-inner-across-domains", "hl-pairing-across-domains",
        "empty-family", "comonotone-shapes-differ"])
def test_guards_reject_bad_input(call, message):
    # f and g live on equal but distinct domains
    f, g = (make_rectangle(3, 3, 1.0).constant_field(1.0) for _ in range(2))
    with pytest.raises(ValueError, match=message):
        call(f, g)


class TestHardyLittlewood:
    def test_hand_computed_pair(self):
        dom = line_domain(2)
        actual, bound = hl_inner(dom.field([1.0, 2.0]), dom.field([2.0, 1.0]))
        assert actual == 4.0
        assert bound == 5.0

    def test_constant_attains(self):
        dom = line_domain(4)
        rng = np.random.default_rng(5)
        f = rng_field(dom, rng)
        actual, bound = hl_inner(f, dom.constant_field(3.0))
        assert actual == pytest.approx(bound, rel=1e-14)

    def test_indicator_gives_cumulative(self):
        dom = line_domain(6)
        rng = np.random.default_rng(6)
        f = rng_field(dom, rng)
        chi = dom.field((np.arange(6) < 4).astype(float))
        _, bound = hl_inner(f, chi)
        prof = decreasing_rearrangement(f)
        assert bound == pytest.approx(prof[:4].sum(), rel=1e-14)

    def test_pairing_hand_computed(self):
        dom = line_domain(3)
        f = dom.field([1.0, 2.0, 3.0])
        g = dom.field([1.0, 0.0, 0.0])
        gt = hl_pairing(f, g)
        assert np.array_equal(gt.values, [0.0, 0.0, 1.0])
        actual, bound = hl_inner(f, gt)
        assert actual == bound == 3.0

    def test_pairing_fixed_points(self):
        dom = line_domain(4)
        f = dom.field([4.0, 3.0, 2.0, 1.0])
        g = dom.field([8.0, 5.0, 5.0, 0.0])  # already comonotone with f
        assert np.array_equal(hl_pairing(f, g).values, g.values)
        const = dom.constant_field(2.0)
        assert np.array_equal(hl_pairing(f, const).values, const.values)

    @settings(max_examples=80, deadline=None)
    @given(values=dyadic_lists, data=st.data())
    def test_inequality_and_equality(self, values, data):
        dom = line_domain(len(values))
        f = dom.field(values)
        g_vals = data.draw(
            st.lists(st.integers(-32, 32).map(lambda k: k / 8.0),
                     min_size=len(values), max_size=len(values)))
        g = dom.field(g_vals)
        actual, bound = hl_inner(f, g)
        assert actual <= bound + 1e-12 * max(1.0, abs(bound))
        paired, _ = hl_inner(f, hl_pairing(f, g))
        assert paired == pytest.approx(bound, abs=1e-12)
        assert equimeasurable(hl_pairing(f, g), g)


class TestPairFamily:
    def test_single_and_constant(self):
        dom = line_domain(4)
        f = dom.field([3.0, 1.0, 4.0, 1.0])
        (out,) = pair_family([f])
        assert np.array_equal(out.values, f.values)
        consts = [dom.constant_field(2.0), dom.constant_field(-1.0)]
        outs = pair_family(consts)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(outs, consts))

    def test_two_bang_bang_generators_stack(self):
        # generators q_i on e_i cells, -p_i elsewhere make a 3-level sum
        dom = make_rectangle(6, 4, 0.5)  # 24 cells, |Omega| = 6
        n = dom.n_cells
        f1 = dom.field(np.where(np.arange(n) < 16, 1.0, 0.0))   # q1=1, p1=0
        f2 = dom.field(np.where(np.arange(n) < 12, 0.0, -1.0))  # q2=0, p2=1
        g1, g2 = pair_family([f1, f2])
        total = dom.field(g1.values + g2.values)
        prof = decreasing_rearrangement(total)
        assert np.array_equal(prof, np.repeat([1.0, 0.0, -1.0], [12, 4, 8]))

    def test_sum_profile_equals_profile_sum(self):
        dom = make_rectangle(5, 5, 1.0)
        rng = np.random.default_rng(7)
        fields = [rng_field(dom, rng) for _ in range(3)]
        outs = pair_family(fields)
        total = dom.field(sum(o.values for o in outs))
        by_cells = sum(np.sort(f.values)[::-1] for f in fields)
        assert np.array_equal(decreasing_rearrangement(total), by_cells)
        for out, f in zip(outs, fields):
            assert equimeasurable(out, f)
        for i in range(3):
            for j in range(i + 1, 3):
                actual, bound = hl_inner(outs[i], outs[j])
                assert actual == pytest.approx(bound, abs=1e-12)


    def test_first_field_is_ranked_once(self, monkeypatch):
        # the family shares one ranking of the first field, and each output
        # keeps the bits of its own hl_pairing with it
        dom = make_rectangle(5, 5, 1.0)
        rng = np.random.default_rng(3)
        fields = [rng_field(dom, rng) for _ in range(3)]
        pairings = [hl_pairing(fields[0], f) for f in fields]
        calls = []
        order = weightopt.rearrange._descending_order
        monkeypatch.setattr(weightopt.rearrange, "_descending_order",
                            lambda values: calls.append(None) or order(values))
        outs = pair_family(fields)
        assert len(calls) == 1
        assert [o.values.tobytes() for o in outs] == [p.values.tobytes() for p in pairings]


class TestComonotone:
    def test_no_cells_is_comonotone(self):
        assert comonotone(np.array([]), np.array([])) is True

    def test_comonotone(self):
        assert comonotone(np.array([3.0, 2.0, 1.0]), np.array([5.0, 5.0, 0.0]))
        assert not comonotone(np.array([3.0, 2.0, 1.0]), np.array([0.0, 5.0, 5.0]))
        assert comonotone(np.array([1.0, 1.0, 0.0]), np.array([7.0, -7.0, -7.0]))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(tie_values, tie_values), max_size=12))
    def test_matches_the_definition(self, cells):
        # f_i > f_j implies g_i >= g_j over all pairs, on arrays and on fields
        f = np.array([c[0] for c in cells], dtype=float)
        g = np.array([c[1] for c in cells], dtype=float)
        expected = all(g[i] >= g[j] for i in range(f.size) for j in range(f.size)
                       if f[i] > f[j])
        assert comonotone(f, g) is expected
        if f.size:
            dom = line_domain(f.size)
            assert comonotone(dom.field(f), dom.field(g)) is expected
