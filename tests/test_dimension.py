"""Antichain DP, Frostman certificates, Eggleston formula, sharpness measures."""

import dataclasses
import re

import numpy as np
import pytest

import martree.dimension as dimension
import oracles
from martree.dimension import (
    FrostmanCertificate,
    _child_sum,
    _dp_pass,
    antichain_max,
    build_sharpness_measure,
    eggleston_dimension,
    frostman_certify,
    multiplicative_measure,
)
from martree.filtration import FiltrationSpec, Product, TreeMeasure
from martree.kappa import dimension_bound
from martree.spacew import SubspaceW, delta_vector
from oracles import _node_weights, _support, antichain_score, digit_frequency_test


@pytest.fixture(autouse=True)
def walks_match_the_stack_walk(monkeypatch):
    """Every witness walk in this file, those of the VIOLATED certificates
    included, lists the nodes of the per-node stack walk in its order."""
    walk = dimension._antichain_max

    def checked(support, beta, lam):
        got = walk(support, beta, lam)
        assert got == oracles.stack_walk(support, beta, lam)
        return got

    monkeypatch.setattr(dimension, "_antichain_max", checked)


def enumerate_antichains(m, depth, level=0, index=0):
    """Every antichain in the subtree (as tuple of (level, index)); N <= 2 only."""
    own = ((level, index),)
    if level == depth:
        return [(), own]
    child_lists = [
        enumerate_antichains(m, depth, level + 1, m * index + j) for j in range(m)
    ]
    out = [own]
    combos = [()]
    for lst in child_lists:
        combos = [c + e for c in combos for e in lst]
    out.extend(combos)
    return out


def recursive_best(weights, m, beta, lam, level=0, index=0):
    """Plain recursive maximizer, written independently of the array DP."""
    score = weights[level][index] - lam * float(m) ** (-level * beta)
    if level + 1 == len(weights):
        return max(score, 0.0)
    children = sum(
        recursive_best(weights, m, beta, lam, level + 1, m * index + j) for j in range(m)
    )
    return max(score, children, 0.0)


def random_antichain(rng, m, depth, level=0, index=0):
    r = rng.random()
    if r < 0.34 or level == depth:
        return [(level, index)] if r < 0.5 else []
    out = []
    for j in range(m):
        out.extend(random_antichain(rng, m, depth, level + 1, m * index + j))
    return out


def random_measure(depth, seed, m=3):
    rng = np.random.default_rng(seed)
    spec = FiltrationSpec(m, depth, 1)
    mass = rng.random(spec.leaves)
    mass /= mass.sum()
    return TreeMeasure(spec, mass)


# ---------------------------------------------------------------- oracles
# The certificate as it was computed before the DP went root-only: a tabled
# DP pass per lambda, and a scan of every depth prefix including the full
# depth.  The library must reproduce every field of it exactly.


def oracle_antichain_dp(weights, m, beta, lam):
    depth = len(weights) - 1
    scores = [weights[n] - lam * float(m) ** (-n * beta) for n in range(depth + 1)]
    values = [None] * (depth + 1)
    take = [None] * (depth + 1)
    mass = [None] * (depth + 1)
    cost = [None] * (depth + 1)
    values[depth] = np.maximum(scores[depth], 0.0)
    take[depth] = scores[depth] >= 0.0
    active = values[depth] > 0.0
    mass[depth] = np.where(active, weights[depth], 0.0)
    cost[depth] = np.where(active, float(m) ** (-depth * beta), 0.0)
    for n in range(depth - 1, -1, -1):
        child_val = values[n + 1].reshape(-1, m).sum(axis=1)
        take[n] = scores[n] >= child_val
        values[n] = np.maximum(np.where(take[n], scores[n], child_val), 0.0)
        active = values[n] > 0.0
        child_mass = mass[n + 1].reshape(-1, m).sum(axis=1)
        child_cost = cost[n + 1].reshape(-1, m).sum(axis=1)
        mass[n] = np.where(active, np.where(take[n], weights[n], child_mass), 0.0)
        cost[n] = np.where(active, np.where(take[n], float(m) ** (-n * beta), child_cost), 0.0)
    return values, take, float(mass[0][0]), float(cost[0][0])


def oracle_antichain_max(mu, beta, lam):
    m = mu.spec.m
    values, take, _, _ = oracle_antichain_dp(_node_weights(mu), m, beta, lam)
    witness = []
    stack = [(0, 0)]
    while stack:
        n, i = stack.pop()
        if values[n][i] <= 0.0:
            continue
        if take[n][i]:
            witness.append((n, int(i)))
        else:
            stack.extend((n + 1, m * i + j) for j in range(m))
    return float(values[0][0]), witness


def oracle_lambda_scan(mu, beta, gamma, grid):
    weights = _node_weights(mu)
    values = []
    witness_costs = []
    best_ratio, best_lambda = 0.0, None
    for lam in grid:
        val, _, mass, cost = oracle_antichain_dp(weights, mu.spec.m, beta, lam)
        values.append(val[0][0])
        if cost > 0:
            witness_costs.append(cost)
            if mass / cost**gamma > best_ratio:
                best_ratio, best_lambda = mass / cost**gamma, lam
    values = np.asarray(values, dtype=float)
    n_leaves = mu.spec.leaves
    c_lo = float(mu.spec.m) ** (-mu.spec.depth * beta)
    c_hi = max(n_leaves * float(mu.spec.m) ** (-mu.spec.depth * beta), 1.0)
    c_grid = np.unique(np.concatenate([np.geomspace(c_lo, c_hi, 257), witness_costs]))
    envelope = np.min(values[None, :] + np.outer(c_grid, grid), axis=1) / c_grid**gamma
    constant = float(max(envelope.max(), best_ratio))
    return values, best_ratio, best_lambda, constant


def oracle_frostman_certify(mu, beta, gamma, lambda_grid_size=64):
    spec = mu.spec
    m = spec.m
    span = float(m) ** (spec.depth * max(beta, 0.25))
    grid = np.geomspace(1.0 / span, span, lambda_grid_size)
    values, witness_ratio, best_lambda, constant = oracle_lambda_scan(mu, beta, gamma, grid)
    per_depth = np.zeros(spec.depth)
    for d in range(1, spec.depth + 1):
        sub = mu.truncated(d)
        span_d = float(m) ** (d * max(beta, 0.25))
        grid_d = np.geomspace(1.0 / span_d, span_d, lambda_grid_size)
        _, ratio_d, _, _ = oracle_lambda_scan(sub, beta, gamma, grid_d)
        per_depth[d - 1] = ratio_d
    depths = np.arange(1, spec.depth + 1, dtype=float)
    keep = (depths >= max(2, spec.depth // 2)) & (per_depth > 0)
    slope = 0.0
    if keep.sum() >= 2:
        slope = float(np.polyfit(depths[keep], np.log(per_depth[keep]), 1)[0])
    violated = slope > dimension.SLOPE_FRACTION * gamma * np.log(m)
    witness = None
    if violated and best_lambda is not None:
        _, witness = oracle_antichain_max(mu, beta, best_lambda)
    at_edge = best_lambda is not None and best_lambda in (grid[0], grid[-1])
    return FrostmanCertificate(
        beta=beta,
        gamma=gamma,
        lambda_grid=grid,
        best_values=values,
        verdict="VIOLATED" if violated else "CERTIFIED",
        constant=constant,
        witness_constant=witness_ratio,
        per_depth_ratio=per_depth,
        slope=slope,
        violating_antichain=witness,
        details={"best_lambda_at_grid_edge": at_edge},
    )


def assert_same_certificate(got, expected):
    for f in dataclasses.fields(FrostmanCertificate):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


class TestAntichainMax:
    def test_lambda_zero_returns_total_mass(self):
        mu = random_measure(3, seed=0)
        value, witness = antichain_max(mu, beta=0.5, lam=0.0)
        assert value == pytest.approx(1.0, rel=1e-12)
        assert antichain_score(mu, witness, 0.5, 0.0) == pytest.approx(value, rel=1e-12)

    def test_huge_lambda_gives_empty(self):
        mu = random_measure(3, seed=1)
        value, witness = antichain_max(mu, beta=0.5, lam=1e9)
        assert value == 0.0
        assert witness == []

    def test_rejects_signed_measure_and_negative_lambda(self):
        spec = FiltrationSpec(3, 2, 1)
        signed = TreeMeasure(spec, np.linspace(-1, 1, 9))
        with pytest.raises(ValueError):
            antichain_max(signed, 0.5, 1.0)
        with pytest.raises(ValueError):
            antichain_max(random_measure(2, 0), 0.5, -1.0)

    def test_rejects_nan_lambda(self):
        with pytest.raises(ValueError, match="lambda must be >= 0, got nan"):
            antichain_max(random_measure(3, seed=0), 0.5, np.nan)

    def test_rejects_nan_beta(self):
        mu = random_measure(3, seed=0)
        with pytest.raises(ValueError, match=re.escape("beta must lie in [0, 1], got nan")):
            antichain_max(mu, np.nan, 1.0)
        for beta in (-0.5, 1.5):  # any other beta still runs
            assert antichain_max(mu, beta, 0.1) == oracle_antichain_max(mu, beta, 0.1)

    def test_matches_full_enumeration_depth_two(self):
        for seed in range(30):
            mu = random_measure(2, seed=seed)
            for beta, lam in ((0.3, 0.1), (0.7, 1.0), (1.0, 3.0)):
                value, witness = antichain_max(mu, beta, lam)
                best = max(
                    antichain_score(mu, c, beta, lam)
                    for c in enumerate_antichains(3, 2)
                )
                best = max(best, 0.0)
                assert value == pytest.approx(best, abs=1e-12)
                assert antichain_score(mu, witness, beta, lam) == pytest.approx(value, abs=1e-12)

    def test_matches_recursive_oracle_depth_four(self):
        for seed in range(100):
            depth = 3 + seed % 2
            mu = random_measure(depth, seed=seed)
            weights = _node_weights(mu)
            rng = np.random.default_rng(seed + 1)
            for _ in range(3):
                beta = rng.uniform(0, 1)
                lam = rng.uniform(0, 2)
                value, witness = antichain_max(mu, beta, lam)
                oracle = recursive_best(weights, 3, beta, lam)
                assert value == pytest.approx(oracle, abs=1e-12)
                assert antichain_score(mu, witness, beta, lam) == pytest.approx(value, abs=1e-12)

    def test_witness_is_antichain_and_dominates_random_ones(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            mu = random_measure(4, seed=seed)
            beta, lam = rng.uniform(0, 1), rng.uniform(0, 1)
            value, witness = antichain_max(mu, beta, lam)
            # pairwise disjoint: leaf ranges do not overlap
            ranges = sorted(
                (i * 3 ** (4 - n), (i + 1) * 3 ** (4 - n)) for n, i in witness
            )
            for (a1, b1), (a2, b2) in zip(ranges, ranges[1:]):
                assert b1 <= a2
            for _ in range(200):
                cand = random_antichain(rng, 3, 4)
                assert antichain_score(mu, cand, beta, lam) <= value + 1e-12


class TestFrostmanCertify:
    def test_uniform_certified(self):
        spec = FiltrationSpec(3, 9, 1)
        mu = TreeMeasure(spec, np.full(spec.leaves, 1.0 / spec.leaves))
        cert = frostman_certify(mu, beta=0.9, gamma=0.5)
        assert cert.verdict == "CERTIFIED"
        ratios = cert.per_depth_ratio
        assert ratios.max() / ratios.min() < 1.5

    def test_single_leaf_violated_with_growing_constant(self):
        spec = FiltrationSpec(3, 9, 1)
        mass = np.zeros(spec.leaves)
        mass[0] = 1.0
        mu = TreeMeasure(spec, mass)
        for beta in (0.1, 0.5, 1.0):
            cert = frostman_certify(mu, beta=beta, gamma=1.0)
            assert cert.verdict == "VIOLATED"
            assert cert.witness_constant >= 3.0 ** (0.1 * spec.depth) * (1 - 1e-9)
            assert cert.violating_antichain is not None

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_multiplicative_measure_matches_the_martingale_oracle(self, depth):
        # the leaves swept from G's levels as they are formed are those of the whole G
        spec = FiltrationSpec(3, depth, 2)
        for v in ([1.0, -1.0, 0.0], [0.5, -0.25, -0.25], [2.0, -1.0, -1.0], [-1.0 + 1e-12, 0.5, 0.5 - 1e-12]):
            mm = multiplicative_measure(spec, np.array(v))
            expected = oracles.martingale_to_measure(oracles.multiplicative_martingale(mm.spec, mm.v))
            assert mm.spec == FiltrationSpec(3, depth, 1) and mm.measure.spec == mm.spec
            assert mm.measure.leaf_mass.tobytes() == expected.leaf_mass.tobytes()

    def test_multiplicative_flips_at_entropy_dimension(self):
        v = np.array([1.0, -1.0, 0.0])  # weights (2/3, 0, 1/3)
        h = eggleston_dimension((1.0 + v) / 3.0)
        spec = FiltrationSpec(3, 11, 1)
        mm = multiplicative_measure(spec, v)
        below = frostman_certify(mm.measure, beta=h - 0.1, gamma=0.5)
        above = frostman_certify(mm.measure, beta=h + 0.1, gamma=0.5)
        assert below.verdict == "CERTIFIED"
        assert above.verdict == "VIOLATED"

    def test_monotone_in_beta(self):
        mu = random_measure(6, seed=3)
        c1 = frostman_certify(mu, beta=0.8, gamma=0.5)
        c2 = frostman_certify(mu, beta=0.5, gamma=0.5)
        if c1.verdict == "CERTIFIED":
            assert c2.verdict == "CERTIFIED"
            assert c2.constant <= c1.constant * (1 + 1e-9)

    def test_parameter_validation(self):
        mu = random_measure(3, seed=0)
        with pytest.raises(ValueError):
            frostman_certify(mu, beta=1.5, gamma=0.5)
        with pytest.raises(ValueError):
            frostman_certify(mu, beta=0.5, gamma=0.0)

    @pytest.mark.parametrize("size", [0, -3, 2.5, 64.0, True, False, "64", None])
    def test_rejects_a_grid_size_that_is_no_positive_int(self, size):
        with pytest.raises(ValueError, match=re.escape(f"lambda_grid_size must be an integer >= 1, got {size!r}")):
            frostman_certify(random_measure(3, seed=0), 0.5, 0.5, lambda_grid_size=size)

    @pytest.mark.parametrize("size", [1, 2, np.int64(3)])
    def test_small_grid_sizes(self, size):
        mu = random_measure(4, seed=3)
        cert = frostman_certify(mu, 0.5, 0.5, lambda_grid_size=size)
        assert_same_certificate_bytes(cert, oracle_frostman_certify(mu, 0.5, 0.5, lambda_grid_size=int(size)))
        if size == 1:  # the one lambda is both edges
            assert cert.details["best_lambda_at_grid_edge"] is True


def skewed_measure(m, depth, seed, ell=1, zeros=0.0):
    """Random cascade: i.i.d. Dirichlet branch weights, some exact zero leaves."""
    rng = np.random.default_rng(seed)
    spec = FiltrationSpec(m, depth, ell)
    mass = np.ones(1)
    for _ in range(depth):
        mass = (mass[:, None] * rng.dirichlet(np.full(m, 0.4), size=mass.size)).ravel()
    mass[rng.random(mass.size) < zeros] = 0.0
    if ell > 1:
        mass = mass[:, None] * rng.standard_normal((1, ell))
    return TreeMeasure(spec, mass)


def same_bytes(a, b):
    """Equal dtype, shape and bytes: -0.0 and +0.0 differ, as do int and numpy int."""
    if isinstance(b, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(b, float):
        return type(a) is float and np.float64(a).tobytes() == np.float64(b).tobytes()
    return repr(a) == repr(b)


def outcome(f, *args):
    """("ok", f(*args)), or ("raised", the exception's type name) where f raises."""
    try:
        return "ok", f(*args)
    except Exception as exc:
        return "raised", type(exc).__name__


def assert_same_certificate_bytes(got, expected):
    for f in dataclasses.fields(FrostmanCertificate):
        assert same_bytes(getattr(got, f.name), getattr(expected, f.name)), f.name


def assert_pass_matches_oracle(weights, m, beta, lams):
    """One engine pass over ``lams`` against one tabled oracle pass per lambda.

    The roots and the kept nodes' tables are bit for bit the oracle's, and
    every node the support leaves out has the oracle value +0.0.
    """
    support = _support(weights, m)
    root_value, root_mass, root_cost, (values, take) = _dp_pass(support, beta, lams, keep_tables=True)
    for j, lam in enumerate(lams):
        expected_values, expected_take, mass, cost = oracle_antichain_dp(weights, m, beta, lam)
        root = (float(root_value[j]), float(root_mass[j]), float(root_cost[j]))
        assert same_bytes(root, (float(expected_values[0][0]), mass, cost))
        for n, nodes in enumerate(support.nodes):
            assert same_bytes(values[n][j], expected_values[n][nodes])
            assert same_bytes(take[n][j], expected_take[n][nodes])
            left_out = np.setdiff1d(np.arange(weights[n].size), nodes)
            assert same_bytes(expected_values[n][left_out], np.zeros(left_out.size))


class TestRootOnlyDP:
    @pytest.mark.parametrize("m", range(2, 14))
    def test_child_sum_matches_row_sum(self, m):
        rng = np.random.default_rng(m)
        for rows in (1, 2, 7, 8, 9, 100, 1000):
            a = rng.standard_normal((3, rows * m)) * np.exp(rng.uniform(-20, 20, (3, rows * m)))
            a[:, rng.random(rows * m) < 0.3] = 0.0
            expected = np.stack([row.reshape(-1, m).sum(axis=1) for row in a])
            assert same_bytes(oracles.child_sum(a[0], m), expected[0])
            # every child kept, and only the nonzero ones scattered into the slab
            kept = np.flatnonzero(a[0])
            for lams in (1, 3):
                assert same_bytes(_child_sum(a[:lams], m, rows, m), expected[:lams])
                assert same_bytes(_child_sum(a[:lams, kept], m, rows, kept), expected[:lams])
            for c in range(1, m) if m <= 7 else ():  # c children at the same offsets under every parent
                offsets = np.sort(rng.choice(m, c, replace=False))
                left_out = np.ones(m, dtype=bool)
                left_out[offsets] = False
                b = a.copy()
                b.reshape(3, rows, m)[:, :, left_out] = 0.0
                expected = np.stack([row.reshape(-1, m).sum(axis=1) for row in b])
                kept = (np.arange(rows)[:, None] * m + offsets).ravel()
                for lams in (1, 3):
                    assert same_bytes(_child_sum(b[:lams, kept], m, rows, c), expected[:lams])

    @pytest.mark.parametrize("m, depth", [(3, 5), (4, 4), (5, 3), (7, 3), (8, 2), (9, 3)])
    def test_pass_matches_tabled_oracle(self, m, depth):
        mu = skewed_measure(m, depth, seed=m, zeros=0.2)
        weights = _node_weights(mu)
        rng = np.random.default_rng(m)
        grid = np.geomspace(1e-3, 1e3, 9)
        for lam in grid:
            beta = rng.uniform(0, 1)
            values, take, mass, cost = oracle_antichain_dp(weights, m, beta, lam)
            assert oracles.antichain_dp(weights, m, beta, lam) == (values[0][0], mass, cost)
            assert_pass_matches_oracle(weights, m, beta, np.array([lam]))
            assert antichain_max(mu, beta, lam) == oracle_antichain_max(mu, beta, lam)
        assert_pass_matches_oracle(weights, m, 0.5, grid)


def cancelling_vector_measure(m, depth, seed):
    """Vector leaf masses whose every level-(depth - 1) node sums to the zero vector."""
    rng = np.random.default_rng(seed)
    spec = FiltrationSpec(m, depth, 2)
    mass = rng.standard_normal((spec.leaves // m, m, 2))
    mass[:, -1] = -mass[:, :-1].sum(axis=1)
    return TreeMeasure(spec, mass.reshape(-1, 2))


def zero_pattern_weights(m, depth, seed):
    """Node weights of a cascade with whole subtrees, single leaves and nodes zeroed."""
    rng = np.random.default_rng(seed)
    mass = np.ones(1)
    for _ in range(depth):
        mass = (mass[:, None] * rng.dirichlet(np.full(m, 0.4), size=mass.size)).ravel()
    level = rng.integers(1, depth + 1)
    dead = rng.random(m**level) < 0.6
    mass[np.repeat(dead, m ** (depth - level))] = 0.0
    mass[rng.random(mass.size) < 0.3] = 0.0
    weights = [mass.reshape(m**n, -1).sum(axis=1) for n in range(depth + 1)]
    cancelled = weights[rng.integers(depth)]  # internal weights of 0 over positive children
    cancelled[rng.random(cancelled.size) < 0.5] = 0.0
    return weights


class TestSupportEngine:
    """The support engine against the tabled oracle, bit for bit."""

    def check_measure(self, mu, betas, gamma=0.5):
        signed = mu.is_scalar and np.any(mu.leaf_mass < 0)
        for beta in betas:
            if signed:  # a signed measure has no certificate, whatever the verdict would be
                with pytest.raises(ValueError, match="nonnegative measure"):
                    frostman_certify(mu, beta, gamma)
                continue
            expected = oracle_frostman_certify(mu, beta, gamma)
            assert_same_certificate_bytes(frostman_certify(mu, beta, gamma), expected)
            for lam in (0.0, 1e-3, 0.1, 1.0, 30.0):
                assert same_bytes(antichain_max(mu, beta, lam), oracle_antichain_max(mu, beta, lam))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_measure(self, zero):
        spec = FiltrationSpec(3, 4, 1)
        mu = TreeMeasure(spec, np.full(spec.leaves, zero))
        assert [nodes.size for nodes in _support(_node_weights(mu), 3).nodes] == [1, 0, 0, 0, 0]
        self.check_measure(mu, (0.0, 0.5, 1.0))

    def test_signed_zeros(self):
        mu = skewed_measure(3, 5, seed=4, zeros=0.5)
        mu.leaf_mass[mu.leaf_mass == 0.0] = -0.0
        self.check_measure(mu, (0.3, 0.9))

    @pytest.mark.parametrize("m", [3, 4])
    def test_vector_measure_whose_node_masses_cancel(self, m):
        mu = cancelling_vector_measure(m, 3, seed=m)
        weights = _node_weights(mu)
        assert np.all(weights[2] < 1e-12) and np.all(weights[3] > 0)
        self.check_measure(mu, (0.2, 0.6, 1.0))

    def test_negative_leaf_under_a_positive_sibling(self):
        spec = FiltrationSpec(3, 4, 1)
        mass = np.random.default_rng(0).random(spec.leaves)
        mass[::3] *= -1.0
        mass[1::9] = 0.0
        mu = TreeMeasure(spec, mass)
        self.check_measure(mu, (0.1, 0.5, 0.9))
        for beta in (0.1, 0.9):
            assert_pass_matches_oracle(_node_weights(mu), 3, beta, np.geomspace(1e-2, 1e2, 7))

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 9])
    def test_random_zero_patterns(self, m):
        depth = {2: 7, 3: 5, 5: 3, 8: 3, 9: 2}[m]
        for seed in range(6):
            weights = zero_pattern_weights(m, depth, seed)
            assert_pass_matches_oracle(weights, m, 0.4, np.geomspace(1e-3, 1e3, 11))
            if m >= 3:  # a tree measure needs m >= 3
                rng = np.random.default_rng(seed)
                mass = weights[-1].copy()
                mu = TreeMeasure(FiltrationSpec(m, depth, 1), mass)
                self.check_measure(mu, (rng.uniform(0, 1),))

    def test_nan_weights_stay_in_the_support(self):
        weights = zero_pattern_weights(3, 4, seed=1)
        weights[4][[0, 40]] = np.nan
        weights[2][5] = np.nan  # over a subtree of zeros
        weights[3][15:18] = 0.0
        weights[4][45:54] = 0.0
        assert_pass_matches_oracle(weights, 3, 0.6, np.geomspace(1e-2, 1e2, 5))

    @staticmethod
    def sharpness_measure(which, depth):
        v = delta_vector(3) if which == "delta" else np.array([1.0, -1.0, 0.0])
        W = SubspaceW.from_blocks([v[:, None]], 3, 1)
        mm, _ = build_sharpness_measure(W, FiltrationSpec(3, depth, 1))
        bound = dimension_bound(W)
        return mm.measure, [b for b in (bound - 0.05, bound + 0.05) if 0.0 <= b <= 1.0]

    @pytest.mark.parametrize("which", ["delta", "span"])
    def test_sharpness_measures_at_depth_nine(self, which):
        self.check_measure(*self.sharpness_measure(which, 9))

    @pytest.mark.parametrize("which", ["delta", "span"])
    def test_depth_twelve_passes_match_the_dense_pass(self, which):
        """The full-depth scan's lambda slabs against one dense pass per lambda."""
        mu, betas = self.sharpness_measure(which, 12)
        weights = _node_weights(mu)
        support = _support(weights, 3)
        step = max(1, dimension.SLAB_ELEMENTS // support.width)
        for beta in betas:
            span = 3.0 ** (12 * max(beta, 0.25))
            grid = np.geomspace(1.0 / span, span, 64)
            for i in range(0, grid.size, step):
                roots = _dp_pass(support, beta, grid[i : i + step])[:3]
                for j, lam in enumerate(grid[i : i + step]):
                    got = tuple(float(root[j]) for root in roots)
                    assert same_bytes(got, oracles.antichain_dp(weights, 3, beta, lam))

    def test_lambda_slabs_of_any_width(self, monkeypatch):
        mu = skewed_measure(4, 4, seed=2, zeros=0.5)
        expected = oracle_frostman_certify(mu, 0.8, 0.5)
        width = _support(_node_weights(mu), 4).width
        sizes = []  # entries of each child-sum input and scatter slab

        def recording_child_sum(a, m, rows, layout):
            sizes.extend((a.size, a.shape[0] * rows * m if isinstance(layout, np.ndarray) else 0))
            return child_sum(a, m, rows, layout)

        child_sum = dimension._child_sum
        monkeypatch.setattr(dimension, "_child_sum", recording_child_sum)
        for elements in (1, 7, 100, 300, 2**16):
            monkeypatch.setattr(dimension, "SLAB_ELEMENTS", elements)
            sizes.clear()
            assert_same_certificate_bytes(frostman_certify(mu, 0.8, 0.5), expected)
            assert 0 < max(sizes) <= max(elements, width)


def product_leaves(weights, depth):
    """Leaf masses of the product measure with these branch weights, signed zeros as they multiply."""
    mass = np.ones(1)
    for _ in range(depth):
        mass = (mass[:, None] * np.asarray(weights, dtype=float)).ravel()
    return mass


def layouts(mu):
    """The support's child layout per level: c for a uniform level, "scatter" otherwise."""
    support = dimension._support(np.asarray(mu.leaf_mass), mu.spec.m)
    return [layout if isinstance(layout, int) else "scatter" for layout in support.layouts]


class TestChildLayouts:
    """Uniform levels, whose kept children are summed in place, and scattered
    levels, each against the dense oracle, bit for bit."""

    check_measure = TestSupportEngine.check_measure

    @pytest.mark.parametrize("m", range(3, 8))
    def test_product_measures_with_zero_weights(self, m):
        depth = {3: 7, 4: 5, 5: 4, 6: 3, 7: 3}[m]
        rng = np.random.default_rng(m)
        verdicts = set()
        for c in range(1, m):
            for zeros in (np.arange(m - c), np.arange(c, m)):  # with c = 1, a zero at every position
                weights = rng.random(m)
                weights[zeros] = 0.0
                mu = TreeMeasure(FiltrationSpec(m, depth, 1), product_leaves(weights / weights.sum(), depth))
                assert layouts(mu) == [c] * depth
                self.check_measure(mu, (0.3, 0.9))
                verdicts |= {frostman_certify(mu, beta, 0.5).verdict for beta in (0.3, 0.9)}
        assert verdicts == {"CERTIFIED", "VIOLATED"}

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_uniform_at_some_levels_only(self, m):
        depth = {3: 6, 4: 4, 5: 4}[m]
        weights = np.random.default_rng(m).random(m)
        weights[1] = 0.0
        mass = product_leaves(weights / weights.sum(), depth)
        mass[m ** (depth - 2) * 2 : m ** (depth - 2) * 3] = 0.0  # one level-2 node, kept, emptied
        mass[np.flatnonzero(mass)[-1]] = 0.0  # one kept leaf
        mu = TreeMeasure(FiltrationSpec(m, depth, 1), mass)
        assert layouts(mu) == [m - 1, "scatter"] + [m - 1] * (depth - 3) + ["scatter"]
        self.check_measure(mu, (0.2, 0.6, 0.95))

    @pytest.mark.parametrize("m", [8, 9])
    def test_eight_or_more_children_keep_the_scatter(self, m):
        weights = np.random.default_rng(m).random(m)
        weights[m // 2] = 0.0
        mu = TreeMeasure(FiltrationSpec(m, 3, 1), product_leaves(weights / weights.sum(), 3))
        assert layouts(mu) == ["scatter"] * 3
        self.check_measure(mu, (0.3, 0.9))

    @pytest.mark.parametrize("m", [3, 4])
    def test_vector_measures(self, m):
        rng = np.random.default_rng(m)
        weights = rng.random(m)
        weights[0] = 0.0
        product = TreeMeasure(FiltrationSpec(m, 4, 2), product_leaves(weights, 4)[:, None] * np.array([0.6, -0.8]))
        mass = rng.standard_normal((m**2, m, 2))
        mass[:, 1] = 0.0
        mass[:, -1] = -mass[:, :-1].sum(axis=1)  # every level-2 node sums to the zero vector
        cancelling = TreeMeasure(FiltrationSpec(m, 3, 2), mass.reshape(-1, 2))
        dense = cancelling_vector_measure(m, 3, seed=m)
        assert [layouts(mu) for mu in (product, cancelling, dense)] == [[m - 1] * 4, [m, m, m - 1], [m] * 3]
        for mu in (product, cancelling, dense):
            self.check_measure(mu, (0.2, 0.6, 1.0))

    def test_negative_zero_and_infinite_leaves(self):
        mass = product_leaves([0.5, -0.0, 0.25, 0.25], 4)  # zero leaves of both signs
        assert np.signbit(mass[mass == 0.0]).any() and not np.signbit(mass[mass == 0.0]).all()
        mu = TreeMeasure(FiltrationSpec(4, 4, 1), mass)
        assert layouts(mu) == [3] * 4
        self.check_measure(mu, (0.3, 0.9))
        mass = mass.copy()
        mass[np.flatnonzero(mass)[5]] = np.inf  # a kept leaf: still uniform
        self.check_measure(TreeMeasure(FiltrationSpec(4, 4, 1), mass), (0.3, 0.9))
        mass[1] = np.inf  # a left-out leaf: its parent keeps all four children
        assert layouts(TreeMeasure(FiltrationSpec(4, 4, 1), mass)) == [3] * 3 + ["scatter"]
        self.check_measure(TreeMeasure(FiltrationSpec(4, 4, 1), mass), (0.3, 0.9))

    def test_depth_twelve_span_certificate_scatters_nothing(self, monkeypatch):
        mu, betas = TestSupportEngine.sharpness_measure("span", 12)
        support = dimension._support(mu.leaf_mass, 3)
        assert support.layouts == [2] * 12 and support.width == 4096
        calls = []  # (lambdas, entries, kept parents, layout) of each child sum

        def recording_child_sum(a, m, rows, layout):
            calls.append((a.shape[0], a.size, rows, layout))
            return child_sum(a, m, rows, layout)

        child_sum = dimension._child_sum
        monkeypatch.setattr(dimension, "_child_sum", recording_child_sum)
        for beta in betas:
            calls.clear()
            frostman_certify(mu, beta, 0.5)
            assert all(layout == 2 for *_, layout in calls)
            # the deepest child sums of the full-depth scan: 4 slabs of 16 lambdas, 3 sums each
            assert [lams for lams, _, rows, _ in calls if rows == 2048 and lams > 1] == [16] * 12
            assert max(size for _, size, _, _ in calls) <= dimension.SLAB_ELEMENTS


class TestSupportFromLeaves:
    """The support is built from the leaves alone: no level sum of the measure
    and no truncated copy, and still bit for bit the dense oracle."""

    check_measure = TestSupportEngine.check_measure

    def test_no_level_mass_or_truncated_call(self, monkeypatch):
        cases = [
            (skewed_measure(3, 5, seed=1, zeros=0.3), 0.6),
            (skewed_measure(4, 3, seed=2, ell=2, zeros=0.2), 0.4),
            (TestSupportEngine.sharpness_measure("span", 7)[0], 0.63),
        ]
        lams = (0.0, 0.05, 1.0)
        expected = [
            (oracle_frostman_certify(mu, beta, 0.5), [oracle_antichain_max(mu, beta, lam) for lam in lams])
            for mu, beta in cases
        ]
        assert expected[-1][0].verdict == "VIOLATED"  # the witness walk runs too

        def refuse(self, depth):
            raise AssertionError("the certificate read a level sum or a truncated copy")

        monkeypatch.setattr(TreeMeasure, "level_mass", refuse)
        monkeypatch.setattr(TreeMeasure, "truncated", refuse)
        for (mu, beta), (cert, maxima) in zip(cases, expected):
            assert_same_certificate_bytes(frostman_certify(mu, beta, 0.5), cert)
            for lam, best in zip(lams, maxima):
                assert same_bytes(antichain_max(mu, beta, lam), best)

    @pytest.mark.parametrize("special", [np.nan, np.inf])
    def test_non_finite_leaf(self, special):
        # library use only: read_measure refuses non-finite masses
        mu = skewed_measure(3, 4, seed=5, zeros=0.3)
        mu.leaf_mass[[7, 40]] = special, 0.0
        if np.isnan(special):  # a NaN mass is not nonnegative: no certificate, no antichain
            for beta in (0.3, 0.8):
                with pytest.raises(ValueError, match="without NaN masses"):
                    frostman_certify(mu, beta, 0.5)
                with pytest.raises(ValueError, match="without NaN masses"):
                    antichain_max(mu, beta, 0.1)
            return
        for beta in (0.3, 0.8):
            assert_same_certificate_bytes(frostman_certify(mu, beta, 0.5), oracle_frostman_certify(mu, beta, 0.5))
            for lam in (0.0, 1e-3, 0.1, 1.0, 30.0):
                got, expected = outcome(antichain_max, mu, beta, lam), outcome(oracle_antichain_max, mu, beta, lam)
                assert got[0] == expected[0] and same_bytes(got[1], expected[1])

    @pytest.mark.parametrize("ell", [1, 2])
    def test_nan_component_is_refused(self, ell):
        # a scalar NaN leaf once certified with constant nan, and the witness
        # walk then raised IndexError; a vector leaf needs one NaN component
        spec = FiltrationSpec(3, 3, ell)
        mass = np.zeros((spec.leaves, ell))
        mass[0, 0], mass[4, ell - 1] = 1.0, np.nan
        mu = TreeMeasure(spec, mass[:, 0] if ell == 1 else mass)
        with pytest.raises(ValueError, match="without NaN masses"):
            frostman_certify(mu, 0.9, 0.5)
        with pytest.raises(ValueError, match="without NaN masses"):
            antichain_max(mu, 0.9, 0.1)

    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("scale", [1e-158, 1e-310])
    def test_tiny_masses(self, ell, scale):
        # at 1e-158 some vector leaves' squared norms underflow to 0 where their
        # ancestors' do not; at 1e-310 the masses are subnormal
        mu = skewed_measure(3, 5, seed=6, ell=ell, zeros=0.3)
        mu.leaf_mass *= scale
        self.check_measure(mu, (0.2, 0.9))

    @pytest.mark.parametrize("m, depth", [(3, 4), (8, 2)])
    def test_single_positive_leaf_at_every_position(self, m, depth):
        spec = FiltrationSpec(m, depth, 1)
        for leaf in range(spec.leaves):
            mass = np.zeros(spec.leaves)
            mass[leaf] = 0.5 + leaf / spec.leaves
            mu, beta = TreeMeasure(spec, mass), (leaf % 5) / 4
            expected = oracle_frostman_certify(mu, beta, 0.5, lambda_grid_size=8)
            assert_same_certificate_bytes(frostman_certify(mu, beta, 0.5, lambda_grid_size=8), expected)
            for lam in (0.0, 0.1):
                assert same_bytes(antichain_max(mu, beta, lam), oracle_antichain_max(mu, beta, lam))

    def test_all_negative_zero_vector_measure(self):
        spec = FiltrationSpec(3, 4, 2)
        mu = TreeMeasure(spec, np.full((spec.leaves, 2), -0.0))
        self.check_measure(mu, (0.0, 0.5, 1.0))

    def test_vector_measure_with_nine_children(self):
        self.check_measure(skewed_measure(9, 3, seed=9, ell=3, zeros=0.3), (0.3, 0.7))


class TestCertificateMatchesOracle:
    @pytest.mark.parametrize("m, depth", [(3, 6), (4, 5), (5, 4), (7, 3), (8, 3), (9, 3)])
    def test_scalar_measures(self, m, depth):
        for seed, (beta, gamma) in enumerate(((0.2, 0.5), (0.6, 0.5), (0.95, 1.0))):
            mu = skewed_measure(m, depth, seed=seed, zeros=0.1)
            assert_same_certificate(
                frostman_certify(mu, beta, gamma), oracle_frostman_certify(mu, beta, gamma)
            )

    def test_violated_certificates_carry_the_same_witness(self):
        mu = skewed_measure(3, 7, seed=11)
        cert = frostman_certify(mu, 0.9, 0.5)
        assert cert.verdict == "VIOLATED" and cert.violating_antichain
        assert_same_certificate(cert, oracle_frostman_certify(mu, 0.9, 0.5))

    def test_depth_twelve_span_witness_walk(self):
        mm, _ = build_sharpness_measure(SubspaceW.from_blocks([np.array([[1.0], [-1.0], [0.0]])], 3, 1),
                                        FiltrationSpec(3, 12, 1))
        cert = frostman_certify(mm.measure, 0.63, 0.5)  # its walk is checked against the stack walk
        assert cert.verdict == "VIOLATED" and len(cert.violating_antichain) == 220
        support = dimension._support(mm.measure.leaf_mass, 3)
        for lam in cert.lambda_grid[::7]:
            assert dimension._antichain_max(support, 0.63, lam) == oracles.stack_walk(support, 0.63, lam)

    @pytest.mark.parametrize("m", [3, 4])
    def test_vector_measures(self, m):
        for seed in range(3):
            mu = skewed_measure(m, 4, seed=seed, ell=2, zeros=0.2)
            for beta in (0.3, 0.8):
                assert_same_certificate(
                    frostman_certify(mu, beta, 0.5), oracle_frostman_certify(mu, beta, 0.5)
                )

    def test_exact_zero_masses_of_the_delta_sharpness_measure(self):
        W = SubspaceW.from_blocks([delta_vector(3)[:, None]], 3, 1)
        mm, _ = build_sharpness_measure(W, FiltrationSpec(3, 7, 1))
        assert np.count_nonzero(mm.measure.leaf_mass) == 1
        for beta, gamma in ((0.05, 0.5), (0.5, 0.5), (1.0, 1.0)):
            assert_same_certificate(
                frostman_certify(mm.measure, beta, gamma),
                oracle_frostman_certify(mm.measure, beta, gamma),
            )

    @pytest.mark.parametrize("m", [3, 5, 9])
    def test_depth_one(self, m):
        mu = skewed_measure(m, 1, seed=m)
        for grid_size in (2, 64):
            assert_same_certificate(
                frostman_certify(mu, 0.5, 0.5, lambda_grid_size=grid_size),
                oracle_frostman_certify(mu, 0.5, 0.5, lambda_grid_size=grid_size),
            )


class TestGridEdgeFlag:
    def test_two_point_grid_puts_best_lambda_on_an_edge(self):
        mu = random_measure(5, seed=2)
        cert = frostman_certify(mu, beta=0.5, gamma=0.5, lambda_grid_size=2)
        assert cert.witness_constant > 0
        assert cert.details["best_lambda_at_grid_edge"] is True

    def test_best_lambda_on_the_last_grid_point(self):
        # grid (1/9, 9): the small lambda takes both heavy leaves (ratio
        # 10.5 / (2/9)), the large one only the heaviest (ratio 10 / (1/9))
        spec = FiltrationSpec(3, 2, 1)
        mass = np.zeros(spec.leaves)
        mass[:2] = 10.0, 0.5
        cert = frostman_certify(TreeMeasure(spec, mass), beta=1.0, gamma=1.0, lambda_grid_size=2)
        assert cert.witness_constant == pytest.approx(90.0)
        assert cert.details["best_lambda_at_grid_edge"] is True

    def test_interior_best_lambda(self):
        spec = FiltrationSpec(3, 6, 1)
        mm = multiplicative_measure(spec, np.array([1.0, -1.0, 0.0]))
        cert = frostman_certify(mm.measure, beta=0.9, gamma=0.5)
        assert cert.details["best_lambda_at_grid_edge"] is False


class TestEggleston:
    def test_uniform_is_one(self):
        for m in (3, 4, 5):
            assert eggleston_dimension(np.full(m, 1.0 / m)) == pytest.approx(1.0, abs=1e-14)

    def test_point_mass_is_zero(self):
        assert eggleston_dimension([1.0, 0.0, 0.0]) == 0.0

    def test_permutation_invariant_and_concave_max(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(3))
            d = eggleston_dimension(p)
            assert d == pytest.approx(eggleston_dimension(p[::-1]), abs=1e-12)
            assert d <= 1.0 + 1e-12

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            eggleston_dimension([0.5, 0.2, 0.2])
        with pytest.raises(ValueError):
            eggleston_dimension([1.5, -0.5, 0.0])

    def test_rejects_nan_weight(self):
        with pytest.raises(ValueError, match="probability distribution"):
            eggleston_dimension([np.nan, 0.5, 0.5])


class TestSharpnessMeasure:
    def test_zero_subspace_uniform(self):
        spec = FiltrationSpec(3, 4, 1)
        mm, lifted = build_sharpness_measure(SubspaceW.zero(3, 1), spec)
        assert np.allclose(mm.weights, 1 / 3, atol=1e-12)
        assert eggleston_dimension(mm.weights) == pytest.approx(1.0, abs=1e-12)

    def test_delta_subspace_point_mass(self):
        spec = FiltrationSpec(3, 4, 1)
        W = SubspaceW.from_blocks([delta_vector(3)[:, None]], 3, 1)
        mm, lifted = build_sharpness_measure(W, spec)
        assert sorted(mm.weights) == pytest.approx([0.0, 0.0, 1.0], abs=1e-9)
        assert eggleston_dimension(mm.weights) == pytest.approx(0.0, abs=1e-8)

    def test_span_example_matches_dimension_bound(self):
        spec = FiltrationSpec(3, 4, 1)
        block = np.outer(np.array([1.0, -1.0, 0.0]), [1.0])
        W = SubspaceW.from_blocks([block], 3, 1)
        mm, lifted = build_sharpness_measure(W, spec)
        assert sorted(mm.weights) == pytest.approx([0.0, 1 / 3, 2 / 3], abs=1e-9)
        expected = 1 - 2 * np.log(2) / (3 * np.log(3))
        assert eggleston_dimension(mm.weights) == pytest.approx(expected, abs=1e-8)
        assert eggleston_dimension(mm.weights) == pytest.approx(dimension_bound(W), abs=1e-8)

    def test_lift_blocks_live_in_w(self):
        spec = FiltrationSpec(3, 3, 2)
        W = SubspaceW.from_blocks([np.outer(delta_vector(3, 1), [0.6, 0.8])], 3, 2)
        mm, a = build_sharpness_measure(W, spec)
        lifted = oracles.sharpness_lift(mm, a)
        for n in range(3):
            assert W.residuals(lifted.diffs[n]).max() <= 1e-10

    @pytest.mark.parametrize("rows", [1, 7, dimension.LIFT_ROWS])
    @pytest.mark.parametrize("depth", range(3, 9))
    def test_lift_check_matches_the_whole_lift(self, depth, rows, monkeypatch):
        # per level, the sliced check's residual and scale are the whole level's, bit for bit,
        # for the witness direction (residuals at rounding level) and for another one
        monkeypatch.setattr(dimension, "LIFT_ROWS", rows)
        cases = [  # (W, another direction, whether its lift leaves W)
            (SubspaceW.from_blocks([np.outer(delta_vector(3, 1), [0.6, 0.8])], 3, 2), np.array([0.8, -0.6]), True),
            (SubspaceW.from_blocks([np.array([[1.0], [-1.0], [0.0]])], 3, 1), np.array([-3.0]), False),
            (SubspaceW.random(3, 2, 3, seed=2), np.array([0.28, 0.96]), True),
        ]
        for W, other, leaves in cases:
            mm, a = build_sharpness_measure(W, FiltrationSpec(3, depth, W.ell))
            G = oracles.multiplicative_martingale(mm.spec, mm.v)
            for direction in (a, other):
                expected = oracles.lift_residuals(W, oracles.sharpness_lift(mm, direction))
                got = [dimension._lift_residual(W, level, direction) for level in G.diffs]
                assert np.array(got).tobytes() == np.array(expected).tobytes()
            assert (max(worst for worst, _ in expected) > 1e-3) == leaves

    def test_corrupted_lift_direction_is_rejected(self, monkeypatch):
        spec = FiltrationSpec(3, 3, 2)
        W = SubspaceW.from_blocks([np.outer(delta_vector(3, 1), [0.6, 0.8])], 3, 2)
        real = dimension.kappa_prime_one

        def turned(W, seed=0):
            # a unit direction orthogonal to the true one: blocks leave W
            return dataclasses.replace(real(W, seed=seed), a=np.array([0.8, -0.6]))

        monkeypatch.setattr(dimension, "kappa_prime_one", turned)
        with pytest.raises(ValueError, match="lifted blocks left W at level 0"):
            build_sharpness_measure(W, spec)

    def test_nan_lift_fails_the_check(self, monkeypatch):
        W = SubspaceW.from_blocks([np.outer(delta_vector(3, 1), [0.6, 0.8])], 3, 2)
        level = np.zeros((5, 3, 1))
        level[1, :, 0] = delta_vector(3, 1)
        level[3, 0, 0] = np.nan
        worst, _ = dimension._lift_residual(W, level, np.array([0.6, 0.8]))
        assert np.isnan(worst)
        monkeypatch.setattr(dimension, "_lift_residual", lambda W, level, a: (np.nan, 1.0))
        with pytest.raises(ValueError, match="lifted blocks left W at level 0"):
            build_sharpness_measure(W, FiltrationSpec(3, 3, 2))

    def test_nan_branch_weight_is_refused(self):
        with pytest.raises(ValueError):
            multiplicative_measure(FiltrationSpec(3, 3, 1), np.array([np.nan, 0.0, 0.0]))

    def test_one_sweep_forms_each_level_once(self, monkeypatch):
        formed = []
        level = Product._level
        monkeypatch.setattr(Product, "_level", lambda self, *args: formed.append(args[1]) or level(self, *args))
        W = SubspaceW.from_blocks([np.array([[1.0], [-1.0], [0.0]])], 3, 1)
        build_sharpness_measure(W, FiltrationSpec(3, 7, 1))
        assert formed == list(range(1, 8))

    @pytest.mark.parametrize("which", ["delta", "span", "span-first-zero", "random"])
    def test_depth_twelve_build_matches_the_unfused_build(self, which, monkeypatch):
        # the measure's leaves and each level's (residual, scale) of the one checked sweep,
        # against the measure's sweep followed by a check of every lifted block; with the span
        # turned so that v_0 = 0, the blocks that are not all zero start with a zero
        W = {"delta": SubspaceW.from_blocks([delta_vector(3)[:, None]], 3, 1),
             "span": SubspaceW.from_blocks([np.array([[1.0], [-1.0], [0.0]])], 3, 1),
             "span-first-zero": SubspaceW.from_blocks([np.array([[0.0], [1.0], [-1.0]])], 3, 1),
             "random": SubspaceW.random(3, 2, 3, seed=2)}[which]
        spec = FiltrationSpec(3, 12, W.ell)
        checks, check = [], dimension._lift_residual
        monkeypatch.setattr(dimension, "_lift_residual", lambda *args: checks.append(check(*args)) or checks[-1])
        mm, _ = build_sharpness_measure(W, spec)
        leaves, expected = oracles.unfused_sharpness(W, spec)
        assert mm.measure.leaf_mass.tobytes() == leaves.tobytes()
        assert np.array(checks).tobytes() == np.array(expected).tobytes()


class TestDigitFrequencies:
    def test_point_mass_digits(self):
        spec = FiltrationSpec(3, 5, 1)
        mm = multiplicative_measure(spec, np.array([2.0, -1.0, -1.0]))
        report = digit_frequency_test(mm, samples=100, seed=0)
        assert report.max_deviation == 0.0

    def test_uniform_within_binomial_bounds(self):
        spec = FiltrationSpec(3, 5, 1)
        mm = multiplicative_measure(spec, np.zeros(3))
        n_samples, n_digits = 10_000, 1_000
        report = digit_frequency_test(mm, samples=n_samples, seed=1, digits_per_sample=n_digits)
        se = np.sqrt((1 / 3) * (2 / 3) / (n_samples * n_digits))
        assert report.max_deviation < 4 * se

    def test_extremal_measure_frequencies(self):
        spec = FiltrationSpec(3, 6, 1)
        mm = multiplicative_measure(spec, np.array([1.0, -1.0, 0.0]))
        report = digit_frequency_test(mm, samples=5_000, seed=2, digits_per_sample=200)
        assert report.max_deviation < 0.002
