"""Group structure, DFT, shift-invariant subspaces, and the fiber conditions."""

import numpy as np
import pytest

from martree.groupfourier import (
    FiberFamily,
    FiniteAbelianGroup,
    antisymmetry_subgroup_bound,
    build_shift_invariant_w,
    check_antisymmetry_fibers,
    check_cancellation_fibers,
    intersect_many,
)
from martree.spacew import check_second_condition
from oracles import dft, idft, shift_invariance_residual


def random_fibers(G, ell, seed, dims=None, plant=None):
    rng = np.random.default_rng(seed)
    fibers = {}
    for gamma in range(1, G.order):
        k = int(rng.integers(0, ell + 1)) if dims is None else dims
        vecs = rng.standard_normal((k, ell)) + 1j * rng.standard_normal((k, ell))
        if plant is not None:
            vecs = np.vstack([plant[None, :], vecs])
        if vecs.shape[0] == 0:
            fibers[gamma] = np.zeros((0, ell), dtype=complex)
            continue
        q, _ = np.linalg.qr(vecs.T)
        fibers[gamma] = q.T[: min(vecs.shape[0], ell)]
    return FiberFamily(group=G, ell=ell, fibers=fibers)


class TestGroup:
    def test_orders_and_tables(self):
        G = FiniteAbelianGroup((2, 2))
        assert G.order == 4
        table = G.add_table()
        assert np.array_equal(table, table.T)  # abelian
        assert np.array_equal(table[0], np.arange(4))  # identity

    def test_negation(self):
        G = FiniteAbelianGroup.cyclic(5)
        for a in range(5):
            assert G.add(a, G.negate(a)) == 0

    def test_character_orthogonality(self):
        for factors in ((3,), (4,), (2, 2), (6,)):
            G = FiniteAbelianGroup(factors)
            chars = G.character_table()
            gram = chars @ chars.conj().T / G.order
            assert np.abs(gram - np.eye(G.order)).max() < 1e-12

    def test_subgroup_generated(self):
        G = FiniteAbelianGroup.cyclic(4)
        assert G.subgroup_generated([2]) == {0, 2}
        assert G.subgroup_generated([1]) == {0, 1, 2, 3}
        assert G.subgroup_generated([]) == {0}


class TestDft:
    def test_unitary_and_inversion(self):
        G = FiniteAbelianGroup((2, 3))
        chars = G.character_table()
        rng = np.random.default_rng(0)
        f = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        fhat = dft(f, chars)
        assert np.linalg.norm(fhat) == pytest.approx(np.linalg.norm(f), rel=1e-12)
        back = idft(fhat, chars)
        assert np.abs(back - f).max() < 1e-12


class TestBuildW:
    def test_full_fibers_give_all_of_v(self):
        G = FiniteAbelianGroup.cyclic(3)
        eye = np.eye(2, dtype=complex)
        fibers = FiberFamily(G, 2, {1: eye.copy(), 2: eye.copy()})
        w = build_shift_invariant_w(fibers)
        assert w.dim == 4
        real = w.realify()
        assert real.dim == 8
        # zero column sums: the realified blocks live in V^{2 ell}
        assert np.abs(real.basis.sum(axis=1)).max() < 1e-10

    def test_empty_fibers_give_zero(self):
        G = FiniteAbelianGroup.cyclic(3)
        fibers = FiberFamily(G, 2, {})
        w = build_shift_invariant_w(fibers)
        assert w.dim == 0

    def test_random_lines_dimension_and_shift_invariance(self):
        G = FiniteAbelianGroup.cyclic(3)
        fibers = random_fibers(G, 2, seed=1, dims=1)
        w = build_shift_invariant_w(fibers)
        assert w.dim == 2
        assert shift_invariance_residual(w) <= 1e-10

    def test_nan_fiber_fails_the_gram_check(self):
        G = FiniteAbelianGroup.cyclic(3)
        with pytest.raises(ValueError, match="fiber 1 basis is not orthonormal"):
            FiberFamily(G, 1, {1: np.array([[np.nan + 0j]]), 2: np.zeros((0, 1))})

    def test_incomplete_fiber_family_rejected(self):
        G = FiniteAbelianGroup.cyclic(3)
        with pytest.raises(ValueError):
            FiberFamily(G, 2, {0: np.eye(2, dtype=complex)})


class TestCancellation:
    def test_common_line_violates(self):
        G = FiniteAbelianGroup.cyclic(4)
        a = np.array([1.0, 1j]) / np.sqrt(2)
        fibers = FiberFamily(G, 2, {g: a[None, :].copy() for g in range(1, 4)})
        holds, witness = check_cancellation_fibers(fibers)
        assert not holds
        overlap = abs(np.vdot(witness, a))
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_transversal_lines_hold(self):
        G = FiniteAbelianGroup.cyclic(3)
        fibers = FiberFamily(
            G,
            2,
            {
                1: np.array([[1.0, 0.0]], dtype=complex),
                2: np.array([[0.0, 1.0]], dtype=complex),
            },
        )
        holds, witness = check_cancellation_fibers(fibers)
        assert holds and witness is None

    def test_agrees_with_delta_search_on_realified_w(self):
        # The two criteria decide the same property; oracle vs oracle over
        # mixed planted/unplanted families.
        rng = np.random.default_rng(7)
        agree = 0
        total = 60
        for trial in range(total):
            m = int(rng.choice([3, 4, 5]))
            G = FiniteAbelianGroup.cyclic(m)
            if trial % 2 == 0:
                a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                a /= np.linalg.norm(a)
                fibers = random_fibers(G, 2, seed=trial, plant=a)
            else:
                fibers = random_fibers(G, 2, seed=trial)
            cancel, _ = check_cancellation_fibers(fibers)
            w = build_shift_invariant_w(fibers)
            if w.dim == 0:
                second = True
            else:
                second, _, _ = check_second_condition(w.realify())
            agree += cancel == second
        assert agree == total


class TestAntisymmetry:
    def test_exponent_two_needs_trivial_fibers(self):
        G = FiniteAbelianGroup((2, 2))
        line = np.array([[1.0, 0.0]], dtype=complex)
        fibers = FiberFamily(G, 2, {1: line.copy(), 2: np.zeros((0, 2)), 3: np.zeros((0, 2))})
        holds, witness = check_antisymmetry_fibers(fibers)
        assert not holds and witness[0] == 1

    def test_transversal_pairs_hold(self):
        G = FiniteAbelianGroup.cyclic(5)
        fibers = FiberFamily(
            G,
            2,
            {
                1: np.array([[1.0, 0.0]], dtype=complex),
                4: np.array([[0.0, 1.0]], dtype=complex),
                2: np.array([[1.0, 1.0]], dtype=complex) / np.sqrt(2),
                3: np.array([[1.0, -1.0]], dtype=complex) / np.sqrt(2),
            },
        )
        holds, _ = check_antisymmetry_fibers(fibers)
        assert holds

    def test_planted_pair_detected_with_witness(self):
        G = FiniteAbelianGroup.cyclic(5)
        a = np.array([0.6, 0.8j])
        fibers = random_fibers(G, 2, seed=3, dims=1)
        fibers.fibers[1] = a[None, :] / np.linalg.norm(a)
        fibers.fibers[4] = a[None, :] / np.linalg.norm(a)
        holds, witness = check_antisymmetry_fibers(fibers)
        assert not holds
        gamma, vec = witness
        assert gamma in (1, 4)

    def test_matches_direct_pair_intersections(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            m = int(rng.choice([3, 4, 5]))
            G = FiniteAbelianGroup.cyclic(m)
            fibers = random_fibers(G, 2, seed=100 + trial)
            holds, _ = check_antisymmetry_fibers(fibers)
            expected = True
            for gamma in range(1, m):
                inter = intersect_many(
                    [fibers.fibers[gamma], fibers.fibers[G.negate(gamma)]], 2
                )
                if inter.shape[0]:
                    expected = False
            assert holds == expected


class TestSubgroupBound:
    def test_all_trivial_gives_full_bound(self):
        G = FiniteAbelianGroup.cyclic(4)
        fibers = FiberFamily(
            G,
            2,
            {
                1: np.array([[1.0, 0.0]], dtype=complex),
                2: np.zeros((0, 2)),
                3: np.array([[0.0, 1.0]], dtype=complex),
            },
        )
        bound, K, _ = antisymmetry_subgroup_bound(fibers)
        assert K == 1 and bound == 1.0

    def test_common_vector_everywhere_gives_zero(self):
        G = FiniteAbelianGroup.cyclic(4)
        a = np.array([[1.0, 0.0]], dtype=complex)
        fibers = FiberFamily(G, 2, {g: a.copy() for g in range(1, 4)})
        bound, K, _ = antisymmetry_subgroup_bound(fibers)
        assert K == 4 and bound == 0.0

    def test_index_two_subgroup(self):
        # common vector exactly on {0, 2} inside Z_4: K = 2, bound 1/2.
        # gamma = 1 and 3 are mutual negatives, so they need distinct lines.
        G = FiniteAbelianGroup.cyclic(4)
        a = np.array([[1.0, 0.0]], dtype=complex)
        line1 = np.array([[0.0, 1.0]], dtype=complex)
        line3 = np.array([[1.0, 1.0]], dtype=complex) / np.sqrt(2)
        fibers = FiberFamily(G, 2, {1: line1, 2: a.copy(), 3: line3})
        bound, K, maximal = antisymmetry_subgroup_bound(fibers)
        assert K == 2
        assert bound == pytest.approx(0.5)
        assert (2,) in maximal

    def test_budget_guard(self):
        G = FiniteAbelianGroup((17,))
        fibers = FiberFamily(G, 1, {g: np.zeros((0, 1)) for g in range(1, 17)})
        with pytest.raises(ValueError):
            antisymmetry_subgroup_bound(fibers, max_order=16)

    def test_antisymmetry_true_implies_k_one(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            G = FiniteAbelianGroup.cyclic(int(rng.choice([3, 5])))
            fibers = random_fibers(G, 2, seed=trial + 500)
            holds, _ = check_antisymmetry_fibers(fibers)
            if holds:
                bound, K, _ = antisymmetry_subgroup_bound(fibers)
                assert K == 1 and bound == 1.0
