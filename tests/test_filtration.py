"""Tree, measure and martingale plumbing."""

import copy
import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martree.filtration import (
    AtomId,
    FiltrationSpec,
    Martingale,
    Product,
    TreeMeasure,
    atom_digits,
    evaluate,
    evaluate_all,
    martingale_to_measure,
    measure_to_martingale,
    tree_distance,
)
from martree.dimension import multiplicative_measure
from martree.riesz import riesz_potential
from martree.spacew import delta_vector
import oracles
from oracles import leaf_digit_matrix, sample_path, sample_paths


def random_martingale(spec, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    diffs = []
    for n in range(spec.depth):
        block = rng.standard_normal((spec.m**n, spec.m, spec.ell)) * scale
        block -= block.mean(axis=1, keepdims=True)
        diffs.append(block)
    return Martingale(spec, rng.standard_normal(spec.ell) * scale, diffs)


def product_martingale(spec, v):
    """G from ``Product.levels``, its blocks checked to sum to zero."""
    return Martingale(spec, np.ones(1), list(Product(spec.m, v).levels(spec.depth)))


def leaf_value_oracle(F, leaf_index):
    """Brute-force F_N on one leaf by summing ancestor contributions."""
    value = F.f0.copy()
    digits = atom_digits(leaf_index, F.spec.m, F.spec.depth)
    atom = 0
    for n, d in enumerate(digits):
        value = value + F.diffs[n][atom, d]
        atom = atom * F.spec.m + d
    return value


class TestSpecAndAtoms:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FiltrationSpec(2, 4)
        with pytest.raises(ValueError):
            FiltrationSpec(3, 0)
        with pytest.raises(ValueError):
            FiltrationSpec(3, 4, 0)
        with pytest.raises(ValueError):
            FiltrationSpec(3, 20)  # over the leaf cap

    def test_atom_counts_and_weights(self):
        spec = FiltrationSpec(3, 5)
        assert [spec.atoms_at(n) for n in range(6)] == [1, 3, 9, 27, 81, 243]

    def test_parent_child_arithmetic(self):
        m = 4
        atom = AtomId(2, 9)
        children = atom.children(m)
        assert [c.index for c in children] == [36, 37, 38, 39]
        for c in children:
            assert c.parent(m) == atom
        assert atom.digits(m) == (2, 1)

    def test_atom_id_is_a_slotted_frozen_value(self):
        atom = AtomId(3, 11)
        assert atom == AtomId(3, 11) and atom != AtomId(3, 12)
        assert hash(atom) == hash(AtomId(3, 11)) and len({atom, AtomId(3, 11)}) == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            atom.level = 4
        assert not hasattr(atom, "__dict__")
        for copy_ in (pickle.loads(pickle.dumps(atom)), copy.deepcopy(atom)):
            assert type(copy_) is AtomId and copy_ == atom and hash(copy_) == hash(atom)

    def test_cylinders_nested_or_disjoint(self):
        # Ball geometry: descendant leaf ranges of two atoms at any levels
        # either nest or are disjoint.
        spec = FiltrationSpec(3, 4)
        rng = np.random.default_rng(7)
        for _ in range(200):
            la, lb = rng.integers(0, 5, size=2)
            ia = int(rng.integers(0, spec.atoms_at(la)))
            ib = int(rng.integers(0, spec.atoms_at(lb)))
            ra = (ia * 3 ** (4 - la), (ia + 1) * 3 ** (4 - la))
            rb = (ib * 3 ** (4 - lb), (ib + 1) * 3 ** (4 - lb))
            lo, hi = max(ra[0], rb[0]), min(ra[1], rb[1])
            if lo < hi:  # they intersect, so one contains the other
                assert (ra[0] <= rb[0] and rb[1] <= ra[1]) or (
                    rb[0] <= ra[0] and ra[1] <= rb[1]
                )


class TestEvaluate:
    def test_zero_diffs_gives_constant(self):
        spec = FiltrationSpec(3, 3, 2)
        F = Martingale.zero(spec)
        F = Martingale(spec, np.array([1.5, -2.0]), F.diffs)
        for n in range(4):
            vals = evaluate(F, n)
            assert np.array_equal(vals, np.tile([1.5, -2.0], (3**n, 1)))

    def test_single_root_block(self):
        spec = FiltrationSpec(3, 2, 1)
        F = Martingale.zero(spec)
        block = np.array([2.0, -1.0, -1.0])[:, None]
        diffs = [b.copy() for b in F.diffs]
        diffs[0] = block[None, :, :]
        F = Martingale(spec, np.array([0.5]), diffs)
        vals = evaluate(F, 1)
        assert np.allclose(vals[:, 0], [2.5, -0.5, -0.5])

    def test_level_out_of_range(self):
        spec = FiltrationSpec(3, 2, 1)
        F = Martingale.zero(spec)
        with pytest.raises(ValueError):
            evaluate(F, 3)

    def test_matches_per_leaf_path_sum(self):
        spec = FiltrationSpec(3, 4, 2)
        F = random_martingale(spec, seed=11)
        vals = evaluate(F, spec.depth)
        rng = np.random.default_rng(0)
        for leaf in rng.integers(0, spec.leaves, size=25):
            assert np.allclose(vals[leaf], leaf_value_oracle(F, int(leaf)), atol=1e-12)

    def test_martingale_property_per_block(self):
        spec = FiltrationSpec(4, 3, 2)
        F = random_martingale(spec, seed=3)
        levels = evaluate_all(F)
        for n in range(spec.depth):
            child_sums = levels[n + 1].reshape(spec.m**n, spec.m, spec.ell).sum(axis=1)
            assert np.max(np.abs(child_sums - spec.m * levels[n])) < 1e-12


class TestMeasureCorrespondence:
    def test_uniform_measure_gives_unit_density(self):
        spec = FiltrationSpec(3, 3, 1)
        mu = TreeMeasure(spec, np.full(27, 1.0 / 27))
        F = measure_to_martingale(mu)
        for n in range(4):
            assert np.allclose(evaluate(F, n), 1.0, atol=1e-12)

    def test_delta_measure_density(self):
        spec = FiltrationSpec(3, 3, 1)
        mass = np.zeros(27)
        leaf = 13
        mass[leaf] = 1.0
        F = measure_to_martingale(TreeMeasure(spec, mass))
        for n in range(4):
            vals = evaluate(F, n)[:, 0]
            ancestor = leaf // 3 ** (3 - n)
            expected = np.zeros(3**n)
            expected[ancestor] = 3.0**n
            assert np.allclose(vals, expected, atol=1e-12)

    def test_conditional_expectation_identity(self):
        # E F_n chi_atom equals the atom mass, for every atom.
        spec = FiltrationSpec(3, 4, 1)
        rng = np.random.default_rng(5)
        mu = TreeMeasure(spec, rng.random(spec.leaves))
        F = measure_to_martingale(mu)
        for n in range(spec.depth + 1):
            lhs = evaluate(F, n)[:, 0] * 3.0 ** (-n)
            assert np.allclose(lhs, mu.level_mass(n), atol=1e-12)

    def test_roundtrip_is_bit_exact_on_dyadic_masses(self):
        spec = FiltrationSpec(3, 4, 1)
        rng = np.random.default_rng(9)
        mass = rng.integers(0, 2**20, size=spec.leaves).astype(float) / 2.0**20
        mu = TreeMeasure(spec, mass)
        back = martingale_to_measure(measure_to_martingale(mu))
        assert np.array_equal(back.leaf_mass, mass)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_roundtrip_both_ways(self, seed):
        spec = FiltrationSpec(3, 3, 2)
        rng = np.random.default_rng(seed)
        F = random_martingale(spec, seed=rng.integers(2**32))
        G = measure_to_martingale(martingale_to_measure(F))
        assert np.allclose(G.f0, F.f0, atol=1e-10)
        for a, b in zip(G.diffs, F.diffs):
            assert np.allclose(a, b, atol=1e-9)


class TestSampling:
    def test_point_mass(self):
        spec = FiltrationSpec(3, 2, 1)
        mass = np.zeros(9)
        mass[4] = 1.0
        idx = sample_paths(TreeMeasure(spec, mass), 50, seed=1)
        assert np.all(idx == 4)

    def test_uniform_first_digit_frequencies(self):
        spec = FiltrationSpec(3, 4, 1)
        mu = TreeMeasure(spec, np.full(81, 1 / 81))
        n = 100_000
        idx = sample_paths(mu, n, seed=42)
        first = leaf_digit_matrix(idx, 3, 4)[:, 0]
        se = np.sqrt((1 / 3) * (2 / 3) / n)
        for j in range(3):
            assert abs(np.mean(first == j) - 1 / 3) < 4 * se

    def test_multiplicative_digit_frequencies_follow_weights(self):
        # Strong-law behaviour of the digit process of a product measure.
        spec = FiltrationSpec(3, 8, 1)
        v = np.array([1.0, -1.0, 0.0])
        G = product_martingale(spec, v)
        mu = martingale_to_measure(G)
        weights = (1.0 + v) / 3.0
        idx = sample_paths(mu, 20_000, seed=7)
        digits = leaf_digit_matrix(idx, 3, 8)
        freqs = np.array([(digits == j).mean() for j in range(3)])
        assert np.max(np.abs(freqs - weights)) < 0.01

    def test_errors(self):
        spec = FiltrationSpec(3, 2, 1)
        with pytest.raises(ValueError):
            sample_paths(TreeMeasure(spec, -np.ones(9)), 3, seed=0)
        with pytest.raises(ValueError):
            sample_paths(TreeMeasure(spec, np.zeros(9)), 3, seed=0)

    def test_deterministic_given_seed(self):
        spec = FiltrationSpec(3, 3, 1)
        mu = TreeMeasure(spec, np.full(27, 1 / 27))
        assert np.array_equal(sample_paths(mu, 100, seed=5), sample_paths(mu, 100, seed=5))

    def test_single_draw_returns_leaf_atom(self):
        spec = FiltrationSpec(3, 3, 1)
        mass = np.zeros(27)
        mass[11] = 1.0
        atom = sample_path(TreeMeasure(spec, mass), seed=0)
        assert atom == AtomId(3, 11)


class TestTreeDistance:
    def test_examples(self):
        spec = FiltrationSpec(3, 4)
        a = AtomId(4, 0)
        assert tree_distance(spec, a, a) == 0.0
        b = AtomId(4, 3**3)  # differs in the first digit
        assert tree_distance(spec, a, b) == 1.0
        c = AtomId(4, 2)  # shares three digits with leaf 0
        assert tree_distance(spec, a, c) == pytest.approx(3.0**-3)

    def test_level_mismatch(self):
        spec = FiltrationSpec(3, 4)
        with pytest.raises(ValueError):
            tree_distance(spec, AtomId(3, 0), AtomId(4, 0))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
    def test_ultrametric(self, i, j, k):
        spec = FiltrationSpec(3, 4)
        a, b, c = AtomId(4, i), AtomId(4, j), AtomId(4, k)
        dab = tree_distance(spec, a, b)
        assert dab <= max(tree_distance(spec, a, c), tree_distance(spec, c, b)) + 1e-15


class TestMultiplicative:
    def test_delta_weights_concentrate_left(self):
        spec = FiltrationSpec(3, 3, 1)
        G = product_martingale(spec, np.array([2.0, -1.0, -1.0]))
        vals = evaluate(G, 3)[:, 0]
        expected = np.zeros(27)
        expected[0] = 27.0
        assert np.array_equal(vals, expected)

    def test_mean_one_at_every_level(self):
        spec = FiltrationSpec(3, 5, 1)
        G = product_martingale(spec, np.array([0.5, 0.25, -0.75]))
        for n in range(6):
            assert evaluate(G, n)[:, 0].mean() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("depth", range(1, 10))
    def test_levels_match_the_whole_martingale_oracle(self, depth):
        # bit for bit (uint64 views): v snapped to the boundary as multiplicative_measure snaps it, the delta's
        # signed zeros, and the levels scaled in place against riesz_potential's f * d
        snapped = multiplicative_measure(FiltrationSpec(3, depth, 1), np.array([-1.0 + 1e-12, 0.5, 0.5 - 1e-12])).v
        cases = [(3, snapped), (3, delta_vector(3)), (4, np.array([0.5, -0.75, 0.25, 0.0])), (5, delta_vector(5, 2))]
        for m, v in cases:
            G = oracles.multiplicative_martingale(FiltrationSpec(m, depth, 1), v)
            for scale in (None, 0.6, 1.7):
                expected = G.diffs if scale is None else riesz_potential(G, scale).diffs
                got = list(Product(m, v).levels(depth, scale))
                assert [d.shape for d in got] == [(m**n, m, 1) for n in range(depth)]
                assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(got, expected))
        raw = np.concatenate([d.ravel() for d in Product(3, delta_vector(3)).levels(depth)])
        assert np.signbit(raw[raw == 0]).any() == (depth >= 2)  # the delta's -0.0 are there to be matched

    def test_weights_are_the_branch_weights(self):
        v = np.array([2.0, -1.0, -0.5, -0.5])
        assert Product(4, v).weights.tobytes() == ((1.0 + v) / 4).tobytes()
        assert Product(4, v.tolist()).v.tobytes() == v.tobytes()

    def test_rejects_bad_v(self):
        with pytest.raises(ValueError, match="zero coordinate sum"):
            Product(3, np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="v_j >= -1"):
            Product(3, np.array([3.0, -1.5, -1.5]))

    @pytest.mark.parametrize("v", [[np.nan, 0.0, 0.0], [0.5, np.nan, -0.5]])
    def test_rejects_nan(self, v):
        with pytest.raises(ValueError, match="zero coordinate sum"):
            Product(3, v)

    @pytest.mark.parametrize("v", [[np.inf, -np.inf, 0.0], [0.0, -np.inf, np.inf]])
    def test_rejects_infinite_v_before_its_sum(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # inf - inf would warn before the ValueError
            with pytest.raises(ValueError, match="v must be finite"):
                Product(3, v)
