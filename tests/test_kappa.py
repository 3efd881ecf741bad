"""Kappa profile: closed forms, grid oracles, convexity, and the entropy slope."""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from martree import fileio, kappa
from martree.kappa import (
    RAY_GRID_POINTS,
    _brent_bounded,
    _entropy_rows,
    _log_mean_exp,
    _optimize_rays,
    dimension_bound,
    entropy_v,
    entropy_v_many,
    feasible_interval,
    kappa_of,
    kappa_prime_one,
    kappa_profile,
    kappa_upper_bound,
    kappa_v,
    kappa_v_many,
    rank_one_directions,
    strict_gap_check,
)
from martree.spacew import SubspaceW, delta_vector

import oracles
from oracles import ray_grid_oracle

LOG3 = np.log(3.0)


def delta_w(m=3, ell=1, j=0, a=None):
    a = np.eye(ell)[0] if a is None else a
    return SubspaceW.from_blocks([np.outer(delta_vector(m, j), a)], m, ell)


def span_example_w(ell=1):
    block = np.outer(np.array([1.0, -1.0, 0.0]), np.eye(ell)[0])
    return SubspaceW.from_blocks([block], 3, ell)


class TestKappaV:
    def test_zero_vector(self):
        for theta in (0.0, 0.3, 1.0):
            assert kappa_v(np.zeros(4), theta) == 0.0

    def test_delta_closed_form(self):
        # kappa_{v_delta}(theta) = (1 - theta) log m; at m=3, theta=1/2 the
        # inner sum is (1/3)(3^2 + 0 + 0) = 3.
        for m in (3, 4, 5):
            v = delta_vector(m)
            for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert kappa_v(v, theta) == pytest.approx((1 - theta) * np.log(m), abs=1e-12)
        assert kappa_v(delta_vector(3), 0.5) == pytest.approx(0.5493061443340549, abs=1e-12)

    def test_vanishes_at_one_for_feasible_v(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.uniform(-1, 1, size=5)
            v -= v.mean()
            v = np.clip(v, -1, None)
            v -= v.mean()  # may push below -1 slightly; clip again mildly
            if np.all(v >= -1):
                assert kappa_v(v, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_continuous_at_zero(self):
        v = np.array([0.5, -0.25, -0.25])
        assert kappa_v(v, 1e-9) == pytest.approx(kappa_v(v, 0.0), abs=1e-6)

    def test_convex_nonincreasing_in_theta(self):
        v = np.array([1.0, -0.7, -0.3])
        thetas = np.linspace(0, 1, 21)
        vals = np.array([kappa_v(v, t) for t in thetas])
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(np.diff(vals, 2) >= -1e-9)


class TestEntropy:
    def test_zero(self):
        assert entropy_v(np.zeros(3)) == 0.0

    def test_delta_attains_minus_log_m(self):
        for m in (3, 4):
            assert entropy_v(delta_vector(m)) == pytest.approx(-np.log(m), abs=1e-12)

    def test_zero_log_zero_convention(self):
        assert np.isfinite(entropy_v(np.array([1.0, -1.0, 0.0])))


class TestKappaOf:
    def test_zero_subspace(self):
        W = SubspaceW.zero(3, 2)
        for theta in (0.0, 0.5, 1.0):
            wit = kappa_of(W, theta)
            assert wit.value == 0.0
            assert np.all(wit.v == 0)

    def test_delta_subspace_exact_line(self):
        W = delta_w(3, 2, j=1, a=np.array([0.3, -0.9]))
        for theta in (0.0, 0.25, 0.5, 0.9):
            wit = kappa_of(W, theta, seed=1)
            assert wit.value == pytest.approx((1 - theta) * LOG3, abs=1e-9)
            assert wit.residual <= 1e-10

    def test_never_exceeds_vertex_bound(self):
        rng = np.random.default_rng(3)
        for seed in range(8):
            W = SubspaceW.random(3, 2, int(rng.integers(1, 4)), seed=seed)
            for theta in (0.1, 0.5, 0.8):
                wit = kappa_of(W, theta, seed=seed)
                assert wit.value <= kappa_upper_bound(theta, 3) + 1e-9

    def test_span_example_matches_grid_oracle(self):
        W = span_example_w()
        u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        assert feasible_interval(u) == (pytest.approx(-np.sqrt(2)), pytest.approx(np.sqrt(2)))
        for theta in (0.0, 0.3, 0.5, 0.7):
            wit = kappa_of(W, theta, seed=0)
            oracle = ray_grid_oracle(u, lambda V: kappa_v_many(V, theta), True)
            assert wit.value == pytest.approx(max(oracle, 0.0), abs=1e-8)
        # theta = 0: the best is t = +-sqrt(2), v = (1,-1,0): max|1+v| = 2.
        assert kappa_of(W, 0.0, seed=0).value == pytest.approx(np.log(2), abs=1e-9)
        # theta = 1/2: max of (1/3)(3 + 2 t^2 u^2) at |t| = sqrt(2): 5/3.
        assert kappa_of(W, 0.5, seed=0).value == pytest.approx(0.5 * np.log(5 / 3), abs=1e-9)

    def test_supremum_dominates_every_sampled_feasible_v(self):
        W = SubspaceW.random(3, 2, 2, seed=11)
        theta = 0.4
        top = kappa_of(W, theta, seed=0)
        from martree.kappa import rank_one_directions

        for u, a in rank_one_directions(W, seed=5):
            t_lo, t_hi = feasible_interval(u)
            for t in np.linspace(t_lo, t_hi, 50):
                assert kappa_v(t * u, theta) <= top.value + 1e-8


class TestKappaPrimeOne:
    def test_zero_subspace(self):
        assert kappa_prime_one(SubspaceW.zero(3, 1)).value == 0.0

    def test_delta_gives_minus_log_m(self):
        for m in (3, 4):
            W = delta_w(m, 1)
            wit = kappa_prime_one(W, seed=0)
            assert wit.value == pytest.approx(-np.log(m), abs=1e-9)

    def test_span_example_value(self):
        # Minimum at t = 1: -(1/3)(2 log 2).
        W = span_example_w()
        wit = kappa_prime_one(W, seed=0)
        assert wit.value == pytest.approx(-2 * np.log(2) / 3, abs=1e-9)
        oracle = ray_grid_oracle(np.array([1.0, -1.0, 0.0]) / np.sqrt(2), entropy_v_many, False)
        assert wit.value == pytest.approx(oracle, abs=1e-8)

    def test_value_range(self):
        for seed in range(6):
            W = SubspaceW.random(3, 2, 2, seed=seed)
            val = kappa_prime_one(W, seed=seed).value
            assert -LOG3 - 1e-9 <= val <= 1e-12

    def test_witness_residuals_within_tolerance(self):
        # every reported witness is an exactly feasible rank-one: residual
        # within 1e-10 of W, box constraint respected
        for seed in range(6):
            W = SubspaceW.random(3, 2, 1 + seed % 3, seed=40 + seed)
            for theta in (0.2, 0.6):
                wit = kappa_of(W, theta, seed=seed)
                assert wit.residual <= 1e-10
                assert np.all(wit.v >= -1 - 1e-12)
                if np.linalg.norm(wit.v) > 0:
                    assert float(W.residuals(np.outer(wit.v, wit.a))) <= 1e-10
            wit = kappa_prime_one(W, seed=seed)
            assert wit.residual <= 1e-10
            assert np.all(wit.v >= -1 - 1e-12)


class TestDerivedQuantities:
    def test_dimension_bounds(self):
        assert dimension_bound(SubspaceW.zero(3, 2)) == pytest.approx(1.0)
        assert dimension_bound(delta_w(3, 2, a=np.array([1.0, 1.0]))) == pytest.approx(0.0, abs=1e-8)
        expected = 1 - 2 * np.log(2) / (3 * LOG3)
        assert dimension_bound(span_example_w()) == pytest.approx(expected, abs=1e-8)

    def test_strict_gap_check(self):
        ok, margin = strict_gap_check(SubspaceW.zero(3, 2), 2.0)
        assert ok and margin == pytest.approx(0.5 * LOG3, abs=1e-12)
        ok, margin = strict_gap_check(delta_w(3, 1), 2.0)
        assert not ok and abs(margin) < 1e-8
        ok, margin = strict_gap_check(span_example_w(), 2.0)
        assert ok
        assert margin == pytest.approx(0.5 * LOG3 - 0.5 * np.log(5 / 3), abs=1e-8)
        # matches the second structural condition on a batch of subspaces
        from martree.spacew import check_second_condition

        for seed in range(6):
            W = SubspaceW.random(3, 2, 1 + seed % 2, seed=100 + seed)
            second, _, _ = check_second_condition(W)
            gap, _ = strict_gap_check(W, 2.0, seed=seed)
            assert gap == second

    def test_profile_invariants(self):
        for W in (delta_w(3, 2, a=np.array([0.5, 0.5])), span_example_w(), SubspaceW.random(3, 2, 2, seed=4)):
            prof = kappa_profile(W, grid_size=15, seed=2)
            vals = prof.values
            assert np.all(np.diff(vals) <= 1e-8)
            assert np.all(np.diff(vals, 2) >= -1e-6)
            assert abs(vals[-1]) <= 1e-9
            assert -np.log(3) - 1e-9 <= prof.kappa_prime_one <= 1e-9
            # convexity: every secant slope kappa(theta)/(theta-1) sits
            # below the endpoint derivative kappa'(1)
            for theta, val in zip(prof.theta_grid[:-1], vals[:-1]):
                assert val / (theta - 1) <= prof.kappa_prime_one + 1e-6
            directions = rank_one_directions(W, seed=2)
            if W.dim == 1 and directions:
                u, _ = directions[0]
                oracle = [
                    ray_grid_oracle(u, lambda V, t=float(t): kappa_v_many(V, t), True, resolution=20_001)
                    for t in prof.theta_grid
                ]
                assert np.max(np.abs(prof.values - np.maximum(oracle, 0.0))) < 1e-6


class TestOptimizerVsOracleSweep:
    def test_random_rank_one_lines(self):
        # every 1-dim subspace spanned by a rank-one block: optimizer within
        # 1e-6 of the dense grid over the induced feasible segment
        rng = np.random.default_rng(21)
        for trial in range(15):
            m = int(rng.choice([3, 4]))
            ell = int(rng.choice([1, 2, 3]))
            v = rng.standard_normal(m)
            v -= v.mean()
            a = rng.standard_normal(ell)
            W = SubspaceW.from_blocks([np.outer(v, a)], m, ell)
            u = v / np.linalg.norm(v)
            for theta in (0.0, 0.35, 0.8):
                opt = kappa_of(W, theta, seed=trial).value
                oracle = max(
                    ray_grid_oracle(u, lambda V, t=theta: kappa_v_many(V, t), True, resolution=100_000),
                    0.0,
                )
                assert abs(opt - oracle) < 1e-6
            opt = kappa_prime_one(W, seed=trial).value
            oracle = ray_grid_oracle(u, entropy_v_many, False, resolution=100_000)
            assert abs(opt - oracle) < 1e-6


class TestNonIntensiveInequality:
    def test_sampled_near_flat_growth_inequality(self):
        # Blocks close to non-intensive (mean growth below eps) obey the
        # kappa(1/p) bound with slack delta; sampled with recorded (eps, delta).
        p, eps, delta = 2.0, 0.01, 0.15
        rng = np.random.default_rng(12)
        W = span_example_w(ell=2)
        kap = kappa_of(W, 1 / p, seed=0).value
        bound = np.exp(kap + delta)
        checked = 0
        for _ in range(40):
            batch = 20_000
            a = rng.standard_normal((batch, 2))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            coeffs = rng.standard_normal((batch, W.dim)) * rng.uniform(0, 2, size=(batch, 1))
            b = np.tensordot(coeffs, W.basis, axes=(1, 0))  # (batch, m, ell)
            shifted = np.linalg.norm(a[:, None, :] + b, axis=2)  # (batch, m)
            growth = shifted.mean(axis=1) - 1.0
            keep = growth <= eps
            lhs = (shifted[keep] ** p).mean(axis=1) ** (1 / p)
            assert np.all(lhs <= bound)
            checked += int(keep.sum())
            if checked >= 10_000:
                break
        assert checked >= 10_000


def direction_cases():
    """W of m 3-7, ell 1-4: dimensions 1 to (m-1) ell, planted rank-ones, the shift W."""
    cases = []
    rng = np.random.default_rng(7)
    for m in range(3, 8):
        for ell in range(1, 5):
            top = (m - 1) * ell
            for k in sorted({1, top // 2, top - 1} - {0}):
                cases.append((f"random-{m}x{ell}-dim{k}", SubspaceW.random(m, ell, k, seed=100 * m + 10 * ell + k)))
            cases.append((f"full-{m}x{ell}", SubspaceW.full_v(m, ell)))
            v = rng.standard_normal(m)
            planted = [np.outer(delta_vector(m, 1), rng.standard_normal(ell)), np.outer(v - v.mean(), rng.standard_normal(ell))]
            cases.append((f"planted-{m}x{ell}", SubspaceW.from_blocks(planted, m, ell)))
    cases.append(("shift-z5", oracles.shift_w()))
    cases.append(("zero", SubspaceW.zero(3, 2)))
    return cases


DIRECTION_CASES = direction_cases()


def assert_same_directions(W, n_starts, seed):
    found = rank_one_directions(W, n_starts=n_starts, seed=seed)
    expected = oracles.rank_one_directions(W, n_starts=n_starts, seed=seed)
    assert len(found) == len(expected)
    for (u, a), (u2, a2) in zip(found, expected):
        assert (u.shape, a.shape) == (u2.shape, a2.shape)
        assert u.tobytes() == u2.tobytes() and a.tobytes() == a2.tobytes()


class TestLockstepDirections:
    """rank_one_directions against its per-start alternating projection."""

    @pytest.mark.parametrize("name, W", DIRECTION_CASES, ids=[name for name, _ in DIRECTION_CASES])
    def test_directions_match_the_per_start_search(self, name, W):
        assert_same_directions(W, n_starts=12, seed=W.dim)

    def test_planted_cases_find_directions(self):
        # the comparison above is not vacuous: planted W with m >= 4 give directions
        planted = [W for name, W in DIRECTION_CASES if name.startswith("planted") and W.m >= 4]
        assert all(rank_one_directions(W, seed=W.dim) for W in planted)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(3, 6), st.integers(1, 4), st.data())
    def test_drawn_subspaces_match(self, m, ell, data):
        k = data.draw(st.integers(1, (m - 1) * ell))
        W = SubspaceW.random(m, ell, k, seed=data.draw(st.integers(0, 10_000)))
        assert_same_directions(W, n_starts=data.draw(st.integers(0, 12)), seed=data.draw(st.integers(0, 100)))


# The numpy log-mean-exp follows the steps of scipy 1.17's logsumexp.  Older
# scipy releases took other steps (before 1.15: log(sum b exp(a - max)) +
# max, no log1p), so there the bitwise comparison with the installed scipy
# is expected to fail; the package's own values do not depend on scipy.
SCIPY_BEFORE_1_17 = tuple(int(part) for part in scipy.__version__.split(".")[:2]) < (1, 17)


def kappa_batch(m, rows, seed):
    """V with ties (repeated entries, the maximum included), v_j = -1 (a zero
    magnitude, -inf after the log) and one row of -1 everywhere."""
    rng = np.random.default_rng(seed)
    V = rng.choice([-1.0, -0.5, 0.0, 0.25, 2.0, *rng.uniform(-1.0, 3.0, 4)], size=(rows, m))
    V[-1] = -1.0
    return V


@pytest.mark.xfail(SCIPY_BEFORE_1_17, reason="scipy < 1.17 computes logsumexp by other steps", strict=False)
class TestLogMeanExp:
    """kappa's numpy log-mean-exp against scipy's logsumexp, bit for bit."""

    @pytest.mark.parametrize("theta", [1.0, 0.5, 1e-3, 1e-9])
    @pytest.mark.parametrize("rows", [1, 4001])
    @pytest.mark.parametrize("m", [2, 3, 5, 9])
    def test_matches_scipy(self, theta, rows, m):
        V = kappa_batch(m, rows, seed=m * rows)
        with np.errstate(divide="ignore"):
            a = np.log(np.abs(1.0 + V)) / theta
        expected = oracles.log_mean_exp(a)
        assert _log_mean_exp(a).tobytes() == expected.tobytes()
        assert kappa_v_many(V, theta).tobytes() == (theta * expected).tobytes()

    def test_rows_with_infinite_or_nan_entries(self):
        a = np.array([[np.inf, 0.0, 1.0], [np.inf, np.inf, 0.0], [-np.inf] * 3,
                      [np.nan, 0.0, 1.0], [1e308, 1e308, 1e308]])
        assert _log_mean_exp(a).tobytes() == oracles.log_mean_exp(a).tobytes()


# ---------------------------------------------------------------- lockstep Brent

# The seed of the benchmark's subspaces (BASE_SEED in bench/workloads.py); its
# forest W has 32 rank-one directions.
BENCH_SEED = 20181120
GOLDEN = Path(__file__).parent / "golden"


def bits(x) -> int:
    """The uint64 view of a float64, so that NaN payloads and signed zeros compare too."""
    return int(np.array(x, dtype=np.float64).view(np.uint64))


def assert_same_optima(found, expected):
    assert [(bits(value), bits(t)) for value, t in found] == [(bits(value), bits(t)) for value, t in expected]


def random_rays(m, count, seed):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((count, m))
    V -= V.mean(axis=1, keepdims=True)
    return list(V / np.linalg.norm(V, axis=1, keepdims=True))


def edge_branch_hits(run):
    """How often Brent's parabolic step landed within tol2 of an end of its
    bracket (the branch that steps tol1 towards the middle) while ``run()`` ran."""
    lines, first = inspect.getsourcelines(_brent_bounded)
    target = first + next(i for i, line in enumerate(lines) if "rat = tol1 * si" in line)
    hits = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
            hits.append(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is _brent_bounded.__code__ else None

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return len(hits)


def quadratic_along(u, centre, nan_between=None):
    """objective_many of (t - centre)^2 on the ray t * u (u a unit vector),
    NaN where t lies strictly inside the interval ``nan_between``."""
    def objective_many(V):
        t = V @ u
        out = (t - centre) ** 2
        if nan_between is not None:
            out = np.where((nan_between[0] < t) & (t < nan_between[1]), np.nan, out)
        return out

    return objective_many


def configs_ws():
    """The forest W and the six random W shapes of the benchmark's configs workload."""
    shapes = ((3, 2, 2), (3, 3, 3), (4, 2, 3), (4, 3, 3), (5, 2, 3), (5, 3, 4))
    named = [("forest", SubspaceW.random(3, 2, 3, seed=BENCH_SEED))]
    named += [(f"r{i}", SubspaceW.random(m, ell, k, seed=BENCH_SEED + i)) for i, (m, ell, k) in enumerate(shapes)]
    named.append(("w_random", fileio.read_subspace(GOLDEN / "w_random.json")))
    return named


def witness_bits(w):
    return bits(w.value), w.v.tobytes(), w.a.tobytes(), bits(w.residual)


class TestLockstepBrent:
    """_optimize_rays against the per-ray grid and scipy bounded polish, bit for bit."""

    @pytest.mark.parametrize("m, count", [(3, 68), (4, 66), (5, 66)])  # 200 rays in all
    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 1.0, "entropy"])
    def test_random_rays(self, m, count, theta):
        us = random_rays(m, count, seed=m)
        if theta == "entropy":
            objective_many, maximize = _entropy_rows, False
        else:
            objective_many, maximize = (lambda V: kappa_v_many(V, theta)), True
        assert_same_optima(_optimize_rays(us, objective_many, maximize),
                           oracles.optimize_rays(us, objective_many, maximize))

    def test_sign_and_maximum_follow_numpy(self):
        values = [0.0, -0.0, 1.5, -2.0, 5e-324, np.inf, -np.inf, np.nan, -np.nan]
        for v in values:
            assert bits(kappa._np_sign(v)) == bits(np.sign(np.float64(v)))
            for w in values:
                assert bits(kappa._np_maximum(v, w)) == bits(np.maximum(np.float64(v), np.float64(w)))

    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_parabolic_step_at_an_end_of_the_bracket(self, end):
        # The minimum sits 3e-8 inside the feasible interval, about tol2 there, so
        # the grid's best point is an end and parabolic steps land within tol2 of
        # the bracket's end.
        us = random_rays(3, 6, seed=11)
        objectives = []
        for u in us:
            t_lo, t_hi = feasible_interval(u)
            objectives.append(quadratic_along(u, t_lo + 3e-8 if end == "lo" else t_hi - 3e-8))
        for u, objective_many in zip(us, objectives):
            found = []
            hits = edge_branch_hits(lambda: found.extend(_optimize_rays([u], objective_many, False)))
            assert hits > 0
            assert_same_optima(found, oracles.optimize_rays([u], objective_many, False))

    @pytest.mark.parametrize("where", ["grid", "bracket"])
    def test_objective_with_nan_values(self, where):
        # "grid": NaN on the upper half of each ray, so the grid's argmin is NaN's
        # first point; "bracket": NaN on a band just above the minimum that falls
        # between two grid points, so only the polish meets it.
        us = random_rays(4, 8, seed=3)
        polish_nans = 0
        for u in us:
            t_lo, t_hi = feasible_interval(u)
            step = (t_hi - t_lo) / (RAY_GRID_POINTS - 1)
            centre = t_lo + 1200 * step
            band = (t_lo + 0.5 * (t_hi - t_lo), np.inf) if where == "grid" else (centre + 0.1 * step, centre + 0.4 * step)
            objective_many = quadratic_along(u, centre, band)

            def counting(V):
                nonlocal polish_nans
                out = objective_many(V)
                polish_nans += int(np.isnan(out).sum()) * (len(V) < RAY_GRID_POINTS)
                return out

            found = _optimize_rays([u], counting, False)
            assert_same_optima(found, oracles.optimize_rays([u], objective_many, False))
            assert np.isnan(found[0][0]) == (where == "grid")
        assert polish_nans > 0

    @pytest.mark.parametrize("name, W", configs_ws(), ids=[name for name, _ in configs_ws()])
    def test_whole_searches_match_the_scipy_ray_step(self, name, W, monkeypatch):
        def searches():
            profile = kappa_profile(W, grid_size=5)
            witnesses = [kappa_of(W, 0.3), kappa_prime_one(W, seed=1), *profile.witnesses, profile.prime_witness]
            return [witness_bits(w) for w in witnesses]

        found = searches()
        monkeypatch.setattr(kappa, "_optimize_rays", oracles.optimize_rays)
        assert found == searches()


class TestRayStepWork:
    def test_forest_kappa_of_makes_batched_calls_only(self, monkeypatch):
        W = SubspaceW.random(3, 2, 3, seed=BENCH_SEED)
        state = {"in_polish": False, "in_scalar": False}
        counts = {"scalar": 0, "many": 0}
        searches = []  # per _optimize_rays call: [rays, points of each of its searches]

        def counting_kappa_v(v, theta):
            counts["scalar"] += not state["in_polish"]
            state["in_scalar"] = True
            try:
                return original["kappa_v"](v, theta)
            finally:
                state["in_scalar"] = False

        def counting_kappa_v_many(V, theta):
            counts["many"] += not (state["in_polish"] or state["in_scalar"])
            return original["kappa_v_many"](V, theta)

        def flagged_joint_polish(*args):
            state["in_polish"] = True
            try:
                return original["_joint_polish"](*args)
            finally:
                state["in_polish"] = False

        def counting_optimize_rays(us, objective_many, maximize):
            searches.append([len(us)])
            return original["_optimize_rays"](us, objective_many, maximize)

        def counting_brent(a, b):
            points = searches[-1]
            points.append(0)
            index = len(points) - 1
            search = original["_brent_bounded"](a, b)
            x = next(search)
            while True:
                points[index] += 1
                value = yield x
                try:
                    x = search.send(value)
                except StopIteration as done:
                    return done.value

        original = {name: getattr(kappa, name) for name in
                    ("kappa_v", "kappa_v_many", "_joint_polish", "_optimize_rays", "_brent_bounded")}
        for name, wrapper in (("kappa_v", counting_kappa_v), ("kappa_v_many", counting_kappa_v_many),
                              ("_joint_polish", flagged_joint_polish), ("_optimize_rays", counting_optimize_rays),
                              ("_brent_bounded", counting_brent)):
            monkeypatch.setattr(kappa, name, wrapper)
        kappa_of(W, 0.5)
        assert counts["scalar"] == 0
        rays = sum(call[0] for call in searches)
        rounds = sum(max(call[1:], default=0) for call in searches)
        assert rays >= 32 and len(searches) == 2
        # the zero witness, one grid per ray and one call per lockstep round
        assert counts["many"] == 1 + rays + rounds <= rays + rounds + 2
        assert rounds < sum(sum(call[1:]) for call in searches) / 10

    def test_lockstep_entropy_objective_refuses_entries_below_minus_one(self):
        V = np.array([[0.5, -0.5, 0.0], [1.0, -1.0 - 2e-12, 0.0 + 2e-12]])
        with pytest.raises(ValueError, match="entropy requires v_j >= -1"):
            _entropy_rows(V)
        with pytest.raises(ValueError, match="entropy requires v_j >= -1"):
            entropy_v(V[1])
        edge = np.array([[1.0, -1.0 - 1e-13, 1e-13]])
        assert _entropy_rows(edge)[0] == entropy_v(edge[0]) == entropy_v_many(edge)[0]
