"""Norm engine: closed forms against layer-cake quadrature and rearrangement oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from martree.filtration import FiltrationSpec, Martingale, TreeMeasure, vector_norms
from martree.norms import (
    besov_norm,
    h1_norm,
    lorentz_p1_from_distribution,
    lorentz_p1_segments,
    lp_norm,
    lp_norm_segments,
    lp_nu_norm,
    segment_sums,
    weak_lp_norm,
)
import oracles
from oracles import difference, level, lp_norm_weighted, simple
from tests.test_filtration import random_martingale


def random_values(spec, level, seed, sparse=False):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((spec.atoms_at(level), spec.ell))
    if sparse:
        vals[rng.random(vals.shape[0]) < 0.5] = 0.0
    return vals


def random_simple(spec, level, seed, sparse=False):
    return simple(random_values(spec, level, seed, sparse), level, spec.m)


def lorentz_quadrature_oracle(g, p):
    """Direct numeric integration of p * int mu{|g|>s}^{1/p} ds."""
    mags, w = g

    def dist(s):
        return (w * np.sum(mags > s)) ** (1.0 / p)

    top = float(mags.max(initial=0.0))
    if top == 0.0:
        return 0.0
    points = sorted(set(mags[mags > 0]))
    val, _ = integrate.quad(dist, 0.0, top, points=points, limit=max(50, 10 * len(points)))
    return p * val


def weak_scan_oracle(g, p):
    """Scan of s * mu{|g|>s}^{1/p} on thresholds just below each value."""
    mags, w = g
    best = 0.0
    for v in np.unique(mags[mags > 0]):
        s = v * (1 - 1e-13)
        best = max(best, s * (w * np.sum(mags > s)) ** (1.0 / p))
    return best


def rearrangement_oracle(g, p):
    """int_0^1 t^{1/p-1} g*(t) dt via exact piecewise integration."""
    mags, w = g
    mags = np.sort(mags)[::-1]
    t = w * np.arange(1, mags.size + 1)
    t0 = np.concatenate([[0.0], t[:-1]])
    return float(np.sum(mags * p * (t ** (1 / p) - t0 ** (1 / p))))


class TestLp:
    def test_indicator_of_single_atom(self):
        spec = FiltrationSpec(3, 4, 1)
        for level in (1, 2, 3):
            vals = np.zeros(3**level)
            vals[1] = 1.0
            g = simple(vals, level)
            for p in (1.0, 2.0, 3.5):
                assert lp_norm(*g, p) == pytest.approx(3.0 ** (-level / p), rel=1e-14)

    def test_constant(self):
        spec = FiltrationSpec(3, 3, 2)
        g = simple(np.tile([3.0, 4.0], (9, 1)), 2)
        for p in (1.0, 2.0, np.inf):
            assert lp_norm(*g, p) == pytest.approx(5.0, rel=1e-14)

    def test_single_scale_identity(self):
        # On one scale the q-norm equals m^{n(1/p-1/q)} times the p-norm with
        # equality for single-atom support.
        spec = FiltrationSpec(3, 4, 1)
        n, p, q = 3, 1.5, 4.0
        vals = np.zeros(27)
        vals[11] = 2.7
        g = simple(vals, n)
        assert lp_norm(*g, q) == pytest.approx(3.0 ** (n * (1 / p - 1 / q)) * lp_norm(*g, p), rel=1e-13)

    def test_rejects_small_p(self):
        spec = FiltrationSpec(3, 2, 1)
        g = random_simple(spec, 1, 0)
        with pytest.raises(ValueError):
            lp_norm(*g, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(1.0, 8.0), st.floats(0.0, 8.0))
    def test_nesting_in_p(self, seed, p, dq):
        spec = FiltrationSpec(3, 3, 2)
        g = random_simple(spec, 2, seed)
        q = p + dq
        assert lp_norm(*g, p) <= lp_norm(*g, q) * (1 + 1e-12)
        assert lp_norm(*g, p) <= lp_norm(*g, np.inf) * (1 + 1e-12)

    def test_homogeneity_and_triangle(self):
        spec = FiltrationSpec(3, 3, 2)
        g = random_values(spec, 3, 1)
        h = random_values(spec, 3, 2)
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(*simple(2.5 * g, 3), p) == pytest.approx(2.5 * lp_norm(*simple(g, 3), p), rel=1e-12)
            s = simple(g + h, 3)
            assert lp_norm(*s, p) <= lp_norm(*simple(g, 3), p) + lp_norm(*simple(h, 3), p) + 1e-12


class TestLorentz:
    def test_indicator(self):
        spec = FiltrationSpec(3, 3, 1)
        vals = np.zeros(27)
        vals[:6] = 1.0  # measure 6/27
        g = simple(vals, 3)
        for p in (1.5, 2.0, 4.0):
            assert lorentz_p1_from_distribution(*g, p) == pytest.approx(p * (6 / 27) ** (1 / p), rel=1e-13)

    def test_rejects_p_at_most_one(self):
        spec = FiltrationSpec(3, 2, 1)
        g = random_simple(spec, 1, 0)
        with pytest.raises(ValueError):
            lorentz_p1_from_distribution(*g, 1.0)

    def test_dominates_lp(self):
        spec = FiltrationSpec(3, 4, 2)
        for seed in range(30):
            g = random_simple(spec, 3, seed, sparse=seed % 2 == 0)
            for p in (1.5, 2.0, 3.0):
                assert lorentz_p1_from_distribution(*g, p) >= lp_norm(*g, p) * (1 - 1e-12)

    def test_matches_quadrature_and_rearrangement(self):
        spec = FiltrationSpec(3, 4, 2)
        for seed in range(20):
            g = random_simple(spec, 2, seed, sparse=seed % 3 == 0)
            for p in (1.5, 2.0, 3.7):
                ours = lorentz_p1_from_distribution(*g, p)
                assert ours == pytest.approx(lorentz_quadrature_oracle(g, p), rel=1e-10)
                assert ours == pytest.approx(rearrangement_oracle(g, p), rel=1e-12)

    def test_scalar_weight_is_the_per_atom_weight(self):
        for mags, p in ((np.array([1.0, 2.0]), 2.0), (random_simple(FiltrationSpec(3, 4, 2), 3, 4, True)[0], 3.7)):
            scalar = lorentz_p1_from_distribution(mags, 0.5, p)
            per_atom = lorentz_p1_from_distribution(mags, np.full(mags.shape, 0.5), p)
            assert np.float64(scalar).tobytes() == np.float64(per_atom).tobytes()
        assert lorentz_p1_from_distribution(np.array([1.0, 2.0]), 0.5, 2.0) == pytest.approx(
            2.0 * (0.5**0.5 + 1.0), rel=1e-15
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_triangle_constant_at_most_two(self, seed):
        # With this normalization the quasi-norm is actually subadditive.
        spec = FiltrationSpec(3, 3, 1)
        g = random_values(spec, 3, seed)
        h = random_values(spec, 3, seed + 1)
        s = simple(g + h, 3)
        p = 2.0
        assert lorentz_p1_from_distribution(*s, p) <= 2.0 * (
            lorentz_p1_from_distribution(*simple(g, 3), p) + lorentz_p1_from_distribution(*simple(h, 3), p)
        )


class TestWeakLp:
    def test_indicator(self):
        spec = FiltrationSpec(3, 3, 1)
        vals = np.zeros(27)
        vals[5:14] = 1.0
        g = simple(vals, 3)
        for p in (1.0, 2.0, 3.0):
            assert weak_lp_norm(*g, p) == pytest.approx((9 / 27) ** (1 / p), rel=1e-13)

    def test_chebyshev(self):
        spec = FiltrationSpec(3, 4, 2)
        for seed in range(20):
            g = random_simple(spec, 3, seed)
            for p in (1.0, 2.0, 3.0):
                assert weak_lp_norm(*g, p) <= lp_norm(*g, p) * (1 + 1e-12)

    def test_matches_scan_oracle(self):
        spec = FiltrationSpec(3, 4, 1)
        for seed in range(20):
            g = random_simple(spec, 3, seed, sparse=True)
            for p in (1.0, 2.0, 2.5):
                assert weak_lp_norm(*g, p) == pytest.approx(weak_scan_oracle(g, p), rel=1e-10)

    def test_delta_density_growth(self):
        # The delta-measure density at level n has weak norm m^{n(p-1)/p}.
        p = 2.0
        for depth in (3, 5, 7):
            spec = FiltrationSpec(3, depth, 1)
            mass = np.zeros(spec.leaves)
            mass[0] = 1.0
            vals = np.zeros(spec.leaves)
            vals[0] = 3.0**depth
            g = simple(vals, depth)
            assert weak_lp_norm(*g, p) == pytest.approx(3.0 ** (depth * (p - 1) / p), rel=1e-12)


class TestBesovAndH1:
    def test_single_level(self):
        spec = FiltrationSpec(3, 4, 1)
        F = Martingale.zero(spec)
        diffs = [d.copy() for d in F.diffs]
        rng = np.random.default_rng(3)
        block = rng.standard_normal((9, 3, 1))
        block -= block.mean(axis=1, keepdims=True)
        diffs[2] = block
        F = Martingale(spec, np.zeros(1), diffs)
        beta, p = 0.3, 2.0
        f3 = difference(F, 3)
        assert besov_norm(F, beta, p) == pytest.approx(3.0 ** (3 * beta) * lp_norm(*f3, p), rel=1e-12)

    def test_zero(self):
        spec = FiltrationSpec(3, 3, 2)
        assert besov_norm(Martingale.zero(spec), 0.7, 2.0) == 0.0

    @pytest.mark.parametrize("m, ell, p", [(3, 1, 1.0), (3, 2, 2.0), (4, 3, 3.5), (5, 2, np.inf)])
    def test_is_the_loop_over_levels_bit_for_bit(self, m, ell, p):
        # nonzero F_0: the n = 0 term counts; the loop adds in order of n
        F = random_martingale(FiltrationSpec(m, 5, ell), m + ell)
        total = 0.0
        for n in range(F.spec.depth + 1):
            total += float(m) ** (-0.4 * n) * lp_norm(*difference(F, n), p)
        assert np.float64(besov_norm(F, -0.4, p)).tobytes() == np.float64(total).tobytes()

    def test_homogeneity_exact(self):
        spec = FiltrationSpec(3, 3, 2)
        F = random_martingale(spec, 8)
        G = Martingale(spec, 3.0 * F.f0, [3.0 * d for d in F.diffs])
        assert besov_norm(G, 0.2, 2.0) == pytest.approx(3.0 * besov_norm(F, 0.2, 2.0), rel=1e-12)

    def test_h1_monotone_paths(self):
        # When |F_n| is nondecreasing along every path the maximal function is
        # |F_N|: constant densities and single-jump-from-zero martingales.
        spec = FiltrationSpec(3, 4, 1)
        from martree.filtration import evaluate, measure_to_martingale

        uniform = measure_to_martingale(TreeMeasure(spec, np.full(81, 1 / 81)))
        assert h1_norm(uniform) == pytest.approx(1.0, rel=1e-12)

        F = Martingale.zero(spec)
        diffs = [d.copy() for d in F.diffs]
        rng = np.random.default_rng(1)
        block = rng.standard_normal((9, 3, 1))
        block -= block.mean(axis=1, keepdims=True)
        diffs[2] = block
        F = Martingale(spec, np.zeros(1), diffs)
        assert h1_norm(F) == pytest.approx(np.mean(np.abs(evaluate(F, 4))), rel=1e-12)

    def test_h1_dominates_l1(self):
        spec = FiltrationSpec(3, 4, 2)
        for seed in range(10):
            F = random_martingale(spec, seed)
            assert h1_norm(F) >= lp_norm(*level(F, 4), 1.0) * (1 - 1e-12)

    def test_h1_linear_growth_of_delta_martingale(self):
        # The delta construction leaves L_1 bounded but H_1 grows like
        # (1 - 1/m) * N: it is not in the Hardy space.
        values = {}
        for depth in (4, 8, 12):
            spec = FiltrationSpec(3, depth, 1)
            G = oracles.multiplicative_martingale(spec, np.array([2.0, -1.0, -1.0]))
            F = G + Martingale(spec, -np.ones(1), Martingale.zero(spec).diffs)
            values[depth] = h1_norm(F)
        slope = (values[12] - values[4]) / 8
        assert slope == pytest.approx(2 / 3, rel=0.05)


class TestLpNu:
    def test_uniform_reduces_to_lp(self):
        spec = FiltrationSpec(3, 3, 2)
        nu = TreeMeasure(spec, np.full(27, 1 / 27))
        g = random_simple(spec, 2, 4)
        for p in (1.0, 2.0):
            assert lp_nu_norm(g[0], nu, p) == pytest.approx(lp_norm(*g, p), rel=1e-12)

    def test_point_mass_evaluates_ancestor(self):
        spec = FiltrationSpec(3, 3, 1)
        mass = np.zeros(27)
        mass[17] = 1.0
        nu = TreeMeasure(spec, mass)
        g = random_values(spec, 2, 5)
        ancestor = 17 // 3
        assert lp_nu_norm(simple(g, 2)[0], nu, 2.0) == pytest.approx(abs(g[ancestor, 0]), rel=1e-12)

    def test_matches_leaf_summation_oracle(self):
        spec = FiltrationSpec(3, 3, 2)
        rng = np.random.default_rng(6)
        nu = TreeMeasure(spec, rng.random(27))
        g = random_values(spec, 2, 7)
        p = 2.0
        # Brute force: push g down to the leaves and sum leaf by leaf.
        acc = 0.0
        for leaf in range(27):
            acc += np.linalg.norm(g[leaf // 3]) ** p * nu.leaf_mass[leaf]
        assert lp_nu_norm(simple(g, 2)[0], nu, p) == pytest.approx(acc ** (1 / p), rel=1e-12)

    def test_rejects_signed_measure(self):
        spec = FiltrationSpec(3, 2, 1)
        nu = TreeMeasure(spec, np.linspace(-1, 1, 9))
        g = random_simple(spec, 1, 8)
        with pytest.raises(ValueError):
            lp_nu_norm(g[0], nu, 2.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_rejects_a_nan_mass(self, p):
        # a NaN passes a test for negative masses; at p = inf it would be skipped
        spec = FiltrationSpec(3, 3, 1)
        mass = np.full(spec.leaves, 1.0 / spec.leaves)
        mass[4] = np.nan
        with pytest.raises(ValueError, match="without NaN masses"):
            lp_nu_norm(random_simple(spec, 2, 9)[0], TreeMeasure(spec, mass), p)

    @pytest.mark.parametrize("atoms", [81, 5, 0])
    def test_rejects_magnitudes_on_no_level_of_the_measure(self, atoms):
        nu = TreeMeasure(FiltrationSpec(3, 3, 1), np.full(27, 1 / 27))
        with pytest.raises(ValueError, match=f"{atoms} atoms are no level of the reference measure"):
            lp_nu_norm(np.ones(atoms), nu, 2.0)


class TestSegmentNorms:
    """The batched per-segment norms equal the single-segment ones bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 300), min_size=0, max_size=12),
        seed=st.integers(0, 2**31 - 1),
        p=st.sampled_from([1.25, 2.0, 3.0, np.inf]),
    )
    def test_match_single_segment_forms(self, lengths, seed, p):
        rng = np.random.default_rng(seed)
        total = sum(lengths)
        # ties and zeros both occur: values are drawn from a short list
        mags = rng.choice([0.0, 0.5, 1.0, 2.5, *rng.random(5) * 10], size=total)
        starts = np.cumsum(lengths) - np.asarray(lengths, dtype=np.int64)
        segments = [mags[s : s + n] for s, n in zip(starts, lengths)]
        weight = 3.0 ** -rng.integers(1, 8)
        sums = segment_sums(mags, lengths)
        assert sums.tolist() == [float(np.sum(seg)) for seg in segments]
        lp = lp_norm_segments(mags, lengths, weight, p)
        assert lp.tolist() == [
            lp_norm_weighted(seg, np.full(seg.shape, weight), p) for seg in segments
        ]
        if p > 1 and p != np.inf:
            lorentz = lorentz_p1_segments(mags, lengths, weight, p)
            assert lorentz.tolist() == [
                lorentz_p1_from_distribution(seg, np.full(seg.shape, weight), p) for seg in segments
            ]

    def test_lorentz_segments_at_forest_scale(self):
        # more segments than a 16-bit id holds and one segment over 10^4
        # atoms, placed past id 65,536, with ties and zeros throughout
        rng = np.random.default_rng(34)
        lengths = rng.integers(0, 4, 70_000)
        lengths[66_000] = 12_000
        total = int(lengths.sum())
        mags = np.where(rng.random(total) < 0.5, rng.choice([0.0, 0.5, 1.0, 2.5], size=total), rng.random(total))
        weight = 3.0 ** -9
        starts = np.cumsum(lengths) - lengths
        lorentz = lorentz_p1_segments(mags, lengths, weight, 2.0)
        assert lorentz.tolist() == [
            lorentz_p1_from_distribution(mags[s : s + n], np.full(n, weight), 2.0)
            for s, n in zip(starts.tolist(), lengths.tolist())
        ]

    @pytest.mark.parametrize(
        "segments",
        [
            [],
            [[], [], []],
            [[0.0, 0.0], [], [0.0]],
            [[1.5], [0.0, 2.0], [0.0, 0.0, 3.0], []],
            [[2.0, 2.0, 2.0], [1.0, 2.0, 1.0, 2.0], [0.5, 0.0, 0.5]],
            # 8 or more kept values: numpy's pairwise path of a row sum
            [[*np.linspace(0.1, 1.0, 8)], [0.0, *np.linspace(1.0, 0.1, 8)], [3.0] * 9,
             [*np.random.default_rng(5).choice([0.0, 0.25, 1.0, 4.0], 40)], [0.0] * 8, [7.0]],
            # random lengths from 0 to 20, so empty, all-zero and long segments
            # meet many kept counts, with zeros and ties throughout
            [[*np.random.default_rng(k).choice([0.0, 0.0, 0.5, 1.0, 3.0, *np.random.default_rng(k).random(3)], n)]
             for k, n in enumerate(np.random.default_rng(9).integers(0, 21, 60).tolist())],
        ],
        ids=["no-segments", "zero-length", "all-zero", "one-value", "ties", "eight-or-more", "random-mixed"],
    )
    def test_lorentz_segments_edge_cases(self, segments):
        mags = np.array([v for seg in segments for v in seg], dtype=float)
        lengths = [len(seg) for seg in segments]
        weight = 3.0**-4
        for p in (1.5, 2.0, 3.0):
            lorentz = lorentz_p1_segments(mags, lengths, weight, p)
            assert lorentz.shape == (len(segments),)
            assert lorentz.tolist() == [
                lorentz_p1_from_distribution(np.array(seg, dtype=float), np.full(len(seg), weight), p)
                for seg in segments
            ]

    def test_lorentz_segments_reject_p_one(self):
        with pytest.raises(ValueError):
            lorentz_p1_segments(np.ones(3), [3], 1.0, 1.0)


def special_values(shape, seed):
    """Normal draws mixed with zeros, subnormals, huge values, +-inf and NaN;
    a 30% share, so short rows are often all zero."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    special = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e-160, 1e200, -1e300, np.inf, -np.inf, np.nan])
    pick = rng.random(shape) < 0.3
    x[pick] = rng.choice(special, size=int(pick.sum()))
    return x


class TestVectorNorms:
    """vector_norms against np.linalg.norm(x, axis=-1), bit for bit."""

    @pytest.mark.parametrize("ell", range(11))
    @pytest.mark.parametrize("shape", [(0,), (1,), (257,), (40, 7), (3, 0, 2)])
    def test_matches_numpy(self, ell, shape):
        x = special_values((*shape, ell), seed=ell)
        for view, in_place in itertools.product((x, np.asfortranarray(x), x[..., ::-1]), (False, True)):
            before = view.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                expected, got = np.linalg.norm(view, axis=-1), vector_norms(view, in_place=in_place)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            # in place, a short last axis leaves the norms in its first column and the rest as it was
            written = in_place and 0 < ell < 8 and view.size > 0
            assert np.shares_memory(got, view) == written
            assert view[..., written:].tobytes() == before[..., written:].tobytes()
            view[...] = before
