"""Constraint subspace W: projection, generation, structural conditions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from martree.filtration import FiltrationSpec
from martree.norms import lp_norm
from martree.spacew import (
    SubspaceW,
    _nelder_mead_lockstep,
    _second_singular_ratios,
    check_first_condition,
    check_second_condition,
    delta_vector,
    project,
    random_w_martingale,
)

import oracles


def rank_one_grid_min(W, resolution=200):
    """Brute-force min over the projective rank-one set of dist(v x a, W).

    Only for m = 3, ell = 2: V and R^2 are both two-dimensional, so unit
    rank-ones are parametrized by two angles.
    """
    assert W.m == 3 and W.ell == 2
    v_basis = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
    v_basis /= np.linalg.norm(v_basis, axis=1, keepdims=True)
    angles = np.linspace(0, np.pi, resolution, endpoint=False)
    v = np.cos(angles)[:, None] * v_basis[0] + np.sin(angles)[:, None] * v_basis[1]
    a = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return float(W.residuals(v[:, None, :, None] * a[None, :, None, :]).min())


def planted_w(m, ell, extra, seed, direction=None):
    rng = np.random.default_rng(seed)
    if direction is None:
        direction = np.outer(delta_vector(m, int(rng.integers(m))), rng.standard_normal(ell))
    blocks = [direction]
    for _ in range(extra):
        b = rng.standard_normal((m, ell))
        blocks.append(b - b.mean(axis=0))
    return SubspaceW.from_blocks(np.array(blocks), m, ell)


class TestSubspace:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            SubspaceW(3, 2, np.ones((1, 3, 2)))  # not in V^ell
        bad = np.zeros((2, 3, 2))
        bad[0, 0, 0], bad[0, 1, 0] = 1, -1
        bad[1] = bad[0]
        with pytest.raises(ValueError):
            SubspaceW(3, 2, bad / np.sqrt(2))  # duplicated directions

    def test_full_v_dimension(self):
        W = SubspaceW.full_v(3, 2)
        assert W.dim == 4

    def test_projection_fixed_points_and_kernel(self):
        W = SubspaceW.random(3, 2, 2, seed=0)
        inside = W.combine(np.array([0.3, -1.2]))
        assert np.allclose(project(inside, W), inside, atol=1e-12)
        rng = np.random.default_rng(1)
        block = rng.standard_normal((3, 2))
        perp = block - project(block, W)
        # perp need not be in V^ell, so project it there first
        assert np.allclose(project(perp - perp.mean(axis=0), W), project(perp, W), atol=1e-12)

    def test_projection_against_lstsq_oracle(self):
        W = SubspaceW.random(4, 3, 5, seed=2)
        rng = np.random.default_rng(3)
        block = rng.standard_normal((4, 3))
        flat = W.basis.reshape(W.dim, -1).T
        coef, *_ = np.linalg.lstsq(flat, block.reshape(-1), rcond=None)
        oracle = (flat @ coef).reshape(4, 3)
        assert np.allclose(project(block, W), oracle, atol=1e-10)

    def test_projection_idempotent_self_adjoint(self):
        W = SubspaceW.random(3, 2, 3, seed=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 2))
        y = rng.standard_normal((3, 2))
        px = project(x, W)
        assert np.allclose(project(px, W), px, atol=1e-12)
        assert np.sum(project(x, W) * y) == pytest.approx(np.sum(x * project(y, W)), abs=1e-12)

    def test_non_finite_basis_rejected(self):
        # inf - inf is NaN, in a column sum and in an overflowing Gram entry
        with pytest.raises(ValueError, match="column sum nan"), np.errstate(invalid="ignore"):
            SubspaceW(3, 2, [[[np.inf, 0.0], [-np.inf, 0.0], [0.0, 0.0]], [[0.0, 0.5], [0.0, -0.5], [0.0, 0.0]]])
        huge = 1e200 * np.array([[[1.0, 1.0], [-1.0, -1.0]], [[1.0, -1.0], [-1.0, 1.0]]])
        with pytest.raises(ValueError, match="not orthonormal"), np.errstate(over="ignore", invalid="ignore"):
            SubspaceW(2, 2, huge)

    def test_shape_mismatch(self):
        W = SubspaceW.random(3, 2, 1, seed=6)
        with pytest.raises(ValueError):
            project(np.zeros((4, 2)), W)

    @pytest.mark.parametrize("m, ell, k", [(3, 1, 5), (3, 1, 3), (4, 2, 7), (3, 2, -1)])
    def test_random_dimension_outside_v_ell(self, m, ell, k):
        with pytest.raises(ValueError, match=rf"dimension {k} outside \[0, \(m-1\)\*ell\] = \[0, {(m - 1) * ell}\]"):
            SubspaceW.random(m, ell, k, seed=0)
        assert SubspaceW.random(m, ell, (m - 1) * ell, seed=0).dim == (m - 1) * ell


def distances_oracle(W, blocks):
    """The per-block loop ``SubspaceW.residuals`` replaces: one distance each."""
    blocks = np.asarray(blocks, dtype=float)
    flat = blocks.reshape(-1, W.m, W.ell)
    return np.array([oracles.distance(b, W) for b in flat], dtype=float).reshape(blocks.shape[:-2])


def residual_cases(m, ell, seed):
    """W = {0}, the whole of V^ell and random subspaces of every dimension between."""
    rng = np.random.default_rng(seed)
    spaces = [SubspaceW.zero(m, ell), SubspaceW.full_v(m, ell)]
    spaces += [SubspaceW.random(m, ell, k, seed=int(rng.integers(1 << 30))) for k in range(1, (m - 1) * ell)]
    for W in spaces:
        generic = rng.standard_normal((40, m, ell)) * rng.choice([1e-3, 1.0, 1e3], size=(40, 1, 1))
        yield W, generic
        if W.dim:
            # blocks inside W up to rounding, where the residual is all roundoff
            inside = np.tensordot(rng.standard_normal((40, W.dim)), W.basis, axes=(1, 0))
            yield W, inside + 1e-14 * generic


class TestResiduals:
    @pytest.mark.parametrize("m, ell", [(3, 1), (3, 2), (4, 2), (5, 3), (8, 1), (9, 2)])
    def test_bit_identical_to_distance_loop(self, m, ell):
        for W, blocks in residual_cases(m, ell, seed=m * 10 + ell):
            assert np.array_equal(W.residuals(blocks), distances_oracle(W, blocks))

    def test_zero_space_residual_is_the_block_norm(self):
        rng = np.random.default_rng(0)
        blocks = rng.standard_normal((25, 3, 2))
        W = SubspaceW.zero(3, 2)
        assert np.array_equal(W.residuals(blocks), distances_oracle(W, blocks))
        assert np.allclose(W.residuals(blocks), np.linalg.norm(blocks, axis=(1, 2)), rtol=1e-15)

    def test_full_space_leaves_v_blocks_alone(self):
        rng = np.random.default_rng(1)
        blocks = rng.standard_normal((30, 4, 2))
        blocks -= blocks.mean(axis=1, keepdims=True)
        W = SubspaceW.full_v(4, 2)
        assert np.array_equal(W.residuals(blocks), distances_oracle(W, blocks))
        assert W.residuals(blocks).max() < 1e-13

    def test_shapes(self):
        W = SubspaceW.random(3, 2, 2, seed=4)
        rng = np.random.default_rng(4)
        empty = W.residuals(np.zeros((0, 3, 2)))
        assert empty.shape == (0,) and np.array_equal(empty, distances_oracle(W, np.zeros((0, 3, 2))))
        nested = rng.standard_normal((2, 5, 3, 2))
        assert np.array_equal(W.residuals(nested), distances_oracle(W, nested))
        single = rng.standard_normal((3, 2))
        assert W.residuals(single).shape == ()
        assert float(W.residuals(single)) == oracles.distance(single, W)
        with pytest.raises(ValueError):
            W.residuals(np.zeros((4, 2, 3)))


class TestRandomWMartingale:
    def test_zero_subspace_gives_zero_martingale(self):
        spec = FiltrationSpec(3, 3, 2)
        F = random_w_martingale(SubspaceW.zero(3, 2), spec, seed=0)
        assert all(np.all(d == 0) for d in F.diffs)

    def test_membership_residuals(self):
        spec = FiltrationSpec(3, 4, 2)
        W = SubspaceW.random(3, 2, 2, seed=1)
        F = random_w_martingale(W, spec, seed=2)
        for n in range(spec.depth):
            assert W.residuals(F.diffs[n]).max() <= 1e-12

    def test_scale_profile_controls_lp_growth(self):
        # With the profile m^{((p-1)/p) n} the mean level norms grow at that rate.
        p = 2.0
        spec = FiltrationSpec(3, 5, 2)
        W = SubspaceW.random(3, 2, 2, seed=3)
        profile = lambda n: 3.0 ** ((p - 1) / p * n)
        means = np.zeros(spec.depth)
        for seed in range(100):
            F = random_w_martingale(W, spec, scale_profile=profile, seed=seed)
            means += np.array(
                [lp_norm(*oracles.difference(F, n), p) for n in range(1, spec.depth + 1)]
            )
        means /= 100
        normalized = means / np.array([profile(n) for n in range(1, spec.depth + 1)])
        assert normalized.max() / normalized.min() < 1.3

    def test_dimension_mismatch(self):
        spec = FiltrationSpec(3, 3, 1)
        with pytest.raises(ValueError):
            random_w_martingale(SubspaceW.random(3, 2, 1, seed=0), spec)


class TestSecondCondition:
    def test_planted_delta_detected(self):
        a = np.array([0.6, -0.8])
        W = SubspaceW.from_blocks([np.outer(delta_vector(3, 0), a)], 3, 2)
        holds, witness, _ = check_second_condition(W)
        assert not holds
        j, a_hat = witness
        assert j == 0
        direction = np.outer(delta_vector(3, 0), a_hat)
        assert float(W.residuals(direction)) <= 1e-8 * np.linalg.norm(direction)

    def test_two_point_direction_is_fine(self):
        block = np.zeros((3, 1))
        block[0, 0], block[1, 0] = 1, -1
        W = SubspaceW.from_blocks([block], 3, 1)
        holds, witness, _ = check_second_condition(W)
        assert holds and witness is None

    def test_full_space_violates(self):
        holds, witness, _ = check_second_condition(SubspaceW.full_v(3, 2))
        assert not holds

    def test_zero_space_holds(self):
        holds, _, _ = check_second_condition(SubspaceW.zero(3, 2))
        assert holds

    def test_detection_rate_on_planted_instances(self):
        detected = 0
        trials = 200
        for seed in range(trials):
            W = planted_w(3, 2, extra=1, seed=seed)
            holds, witness, _ = check_second_condition(W)
            detected += not holds
        assert detected == trials

    def test_no_false_positives_on_generic_w(self):
        # Random subspaces below the transversality dimension miss all the
        # delta planes; the smallest singular values stay well above the
        # decision threshold.
        for m, ell in ((3, 2), (4, 2)):
            kmax = (m - 1) * ell - ell
            for seed in range(100):
                k = 1 + seed % kmax
                W = SubspaceW.random(m, ell, k, seed=1000 + seed)
                holds, _, diag = check_second_condition(W)
                assert holds
                assert min(diag["sigma_min"]) >= 1e-6


class TestFirstCondition:
    def test_planted_rank_one_recovered(self):
        rng = np.random.default_rng(10)
        v = rng.standard_normal(3)
        v -= v.mean()
        a = rng.standard_normal(2)
        W = SubspaceW.from_blocks([np.outer(v, a)], 3, 2)
        status, witness, diag = check_first_condition(W, seed=0)
        assert status is False
        wv, wa = witness
        recovered = np.outer(wv, wa)
        planted = np.outer(v, a)
        cos = abs(np.sum(recovered * planted)) / (
            np.linalg.norm(recovered) * np.linalg.norm(planted)
        )
        assert cos > 1 - 1e-8

    def test_generic_two_dim_w_satisfies(self):
        # Fixed seed chosen so the span of two generic rank-two blocks misses
        # the rank-one variety; confirmed by the projective grid oracle.
        W = SubspaceW.random(3, 2, 2, seed=20)
        status, _, diag = check_first_condition(W, seed=1)
        assert status is True
        assert rank_one_grid_min(W, resolution=200) > 1e-3

    def test_zero_space(self):
        status, witness, _ = check_first_condition(SubspaceW.zero(3, 2))
        assert status is True and witness is None

    def test_second_violation_implies_first_violation(self):
        # Delta rank-ones are rank-ones: the first condition is the stronger one.
        for seed in range(20):
            W = planted_w(3, 2, extra=1, seed=seed)
            second, _, _ = check_second_condition(W)
            assert not second
            first, _, _ = check_first_condition(W, seed=seed)
            assert first is not True


def oracle_cases():
    """W of m 3-7, ell 2-4: dimensions 1 to (m-1) ell, planted rank-ones, the shift W."""
    cases = []
    for m in range(3, 8):
        for ell in range(2, 5):
            top = (m - 1) * ell
            for k in sorted({1, top // 2, top - 1}):
                cases.append((f"random-{m}x{ell}-dim{k}", SubspaceW.random(m, ell, k, seed=100 * m + 10 * ell + k)))
            cases.append((f"full-{m}x{ell}", SubspaceW.full_v(m, ell)))
    for m, ell, extra in ((3, 2, 1), (4, 3, 2), (6, 2, 3)):
        cases.append((f"planted-{m}x{ell}+{extra}", planted_w(m, ell, extra=extra, seed=m + extra)))
    cases.append(("shift-z5", oracles.shift_w()))
    return cases


ORACLE_CASES = oracle_cases()
PROJECTION_CASES = ORACLE_CASES + [("zero-3x2", SubspaceW.zero(3, 2)), ("zero-5x3", SubspaceW.zero(5, 3))]


@pytest.mark.parametrize("name, W", PROJECTION_CASES, ids=[name for name, _ in PROJECTION_CASES])
class TestProjectionAgainstScalar:
    """``project`` and what is built on it against the one-block reference, bit for bit."""

    @staticmethod
    def blocks(W):
        """Generic blocks at three scales, and blocks of W up to rounding."""
        rng = np.random.default_rng(W.m * W.ell + W.dim)
        blocks = rng.standard_normal((2, 6, W.m, W.ell)) * rng.choice([1e-3, 1.0, 1e3], size=(2, 6, 1, 1))
        if W.dim:
            blocks[1] = np.tensordot(rng.standard_normal((6, W.dim)), W.basis, axes=(1, 0)) + 1e-14 * blocks[0]
        return blocks

    def test_project(self, name, W):
        blocks = self.blocks(W)
        expected = np.array([[oracles.project(b, W) for b in row] for row in blocks])
        assert project(blocks, W).tobytes() == expected.tobytes()
        assert project(blocks[1], W).tobytes() == expected[1].tobytes()
        assert project(blocks.transpose(1, 0, 2, 3), W).tobytes() == expected.transpose(1, 0, 2, 3).tobytes()
        for block, one in zip(blocks[0], expected[0]):
            assert project(block, W).tobytes() == one.tobytes()
        empty = project(np.zeros((0, W.m, W.ell)), W)
        assert empty.shape == (0, W.m, W.ell)

    def test_residuals(self, name, W):
        blocks = self.blocks(W)
        expected = np.array([[oracles.distance(b, W) for b in row] for row in blocks])
        assert W.residuals(blocks).tobytes() == expected.tobytes()
        assert float(W.residuals(blocks[0, 0])) == expected[0, 0]

    def test_combine(self, name, W):
        rng = np.random.default_rng(W.dim)
        C = rng.standard_normal((3, 12, W.dim))
        C[0, 3] = 0.0
        expected = np.array([[oracles.combine(c, W) for c in row] for row in C])
        assert W.combine(C).tobytes() == expected.tobytes()
        assert W.combine(C[:, ::2]).tobytes() == expected[:, ::2].tobytes()
        assert W.combine(C[1, 2]).tobytes() == expected[1, 2].tobytes()
        assert W.combine(np.zeros((0, W.dim))).shape == (0, W.m, W.ell)

    def test_second_condition(self, name, W):
        holds, witness, diag = check_second_condition(W)
        expected_holds, expected_witness, expected_diag = oracles.check_second_condition(W)
        assert holds is expected_holds
        assert np.array(diag["sigma_min"]).tobytes() == np.array(expected_diag["sigma_min"]).tobytes()
        if expected_witness is None:
            assert witness is None
        else:
            assert witness[0] == expected_witness[0] and witness[1].tobytes() == expected_witness[1].tobytes()


def lockstep_starts(W, n_starts, seed, maxiter, rows=None):
    """The first-condition lockstep search; ``rows``, if given, gets the size of each stacked call."""
    rng = np.random.default_rng(seed)
    X0 = np.empty((n_starts, W.dim))
    for x0 in X0:
        x0[:] = rng.standard_normal(W.dim)
        x0 /= np.linalg.norm(x0)

    def f(C):
        if rows is not None:
            rows.append(len(C))
        return _second_singular_ratios(C, W)

    return _nelder_mead_lockstep(f, X0, 1e-12, 1e-15, maxiter)


def assert_same_starts(W, n_starts, seed, maxiter):
    """Every start ends where scipy's Nelder-Mead ends it, bit for bit.

    Returns the lockstep's ``nit`` and ``nfev`` and the number of rows its
    objective valued.
    """
    rows = []
    x, fun, nit, nfev = lockstep_starts(W, n_starts, seed, maxiter, rows)
    for s, res in enumerate(oracles.nelder_mead_starts(W, n_starts, seed, maxiter)):
        assert x[s].tobytes() == res.x.tobytes(), s
        assert fun[s].tobytes() == np.float64(res.fun).tobytes(), s
        assert (nit[s], nfev[s]) == (res.nit, res.nfev), s
    return nit, nfev, sum(rows)


class TestLockstepAgainstScipy:
    """The lockstep Nelder-Mead against scipy's, one start at a time."""

    @pytest.mark.parametrize("name, W", ORACLE_CASES, ids=[name for name, _ in ORACLE_CASES])
    def test_ratios_match_the_single_block_ratio(self, name, W):
        rng = np.random.default_rng(W.dim)
        C = rng.standard_normal((60, W.dim))
        C[3] = 0.0  # the zero block has ratio 1
        C[7] = C[5]
        expected = [oracles.second_singular_ratio(c, W) for c in C]
        assert _second_singular_ratios(C, W).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("name, W", ORACLE_CASES, ids=[name for name, _ in ORACLE_CASES])
    def test_every_start_matches_scipy(self, name, W):
        # maxiter 150 stops some starts by their tolerances and the rest by maxiter
        assert_same_starts(W, n_starts=5, seed=W.dim, maxiter=150)

    def test_tied_plateau_runs_to_the_end(self):
        # full runs on the shift W: simplices with tied values at 0.5
        assert_same_starts(oracles.shift_w(), n_starts=24, seed=0, maxiter=2000)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(3, 6), st.integers(2, 4), st.data())
    def test_drawn_subspaces_match_scipy(self, m, ell, data):
        k = data.draw(st.integers(1, (m - 1) * ell))
        W = SubspaceW.random(m, ell, k, seed=data.draw(st.integers(0, 10_000)))
        assert_same_starts(W, n_starts=3, seed=data.draw(st.integers(0, 100)), maxiter=60)

    @pytest.mark.parametrize("value", [1.0, np.nan])
    def test_constant_objective_finishes_at_its_fixed_point(self, value):
        # A flat objective shrinks every simplex until the shrink stops moving
        # it, signed zeros and subnormals included; from there each iteration
        # repeats the last, and scipy goes on to maxiter.
        X0 = np.array([[0.0, -0.0, 1e-300], [-0.0, 1e-300, 1.0], [1e-300, 0.0, -0.0], [-0.0, -0.0, 0.0]])
        rows = []

        def f(C):
            rows.append(len(C))
            return np.full(len(C), value)

        x, fun, nit, nfev = _nelder_mead_lockstep(f, X0, -1.0, -1.0, 2000)
        for s, x0 in enumerate(X0):
            res = optimize.minimize(lambda v: value, x0, method="Nelder-Mead",
                                    options={"xatol": -1.0, "fatol": -1.0, "maxiter": 2000})
            assert x[s].tobytes() == res.x.tobytes(), s
            assert fun[s].tobytes() == np.float64(res.fun).tobytes(), s
            assert (nit[s], nfev[s]) == (res.nit, res.nfev) == (2000, 9999), s
        assert sum(rows) < nfev.sum()  # the repeated iterations were not run

    def test_fixed_point_on_the_ratio_objective(self):
        # start 0 reaches a fixed point of the step well before maxiter
        W = SubspaceW.random(5, 3, 4, seed=0)
        nit, nfev, rows = assert_same_starts(W, n_starts=3, seed=0, maxiter=2000)
        assert nit[0] == 2000
        assert rows < nfev.sum()

    def test_no_starts(self):
        x, fun, nit, nfev = lockstep_starts(SubspaceW.random(3, 2, 2, seed=0), 0, 0, 2000)
        assert x.shape == (0, 2) and fun.shape == nit.shape == nfev.shape == (0,)

    @pytest.mark.parametrize("W", [
        planted_w(3, 2, extra=1, seed=4),
        SubspaceW.random(3, 2, 2, seed=20),
        SubspaceW.random(4, 2, 3, seed=5),
        oracles.shift_w(),
        SubspaceW.random(3, 1, 1, seed=0),
        SubspaceW.zero(3, 2),
    ], ids=["planted", "holds", "random-4x2", "shift-z5", "ell1", "zero"])
    def test_check_first_condition_matches_the_per_start_search(self, W):
        status, witness, diag = check_first_condition(W, seed=3)
        expected_status, expected_witness, expected_diag = oracles.check_first_condition(W, seed=3)
        assert status is expected_status
        assert diag == expected_diag and type(diag["min_ratio"]) is type(expected_diag["min_ratio"])
        if expected_witness is None:
            assert witness is None
        else:
            assert [w.tobytes() for w in witness] == [w.tobytes() for w in expected_witness]
