"""Frostman constants, trace embedding experiments, and the divergent pair."""

import numpy as np
import pytest

from martree import trace
from martree.decomp import classify_atoms, verify_tree_trace
from martree.filtration import (
    FiltrationSpec,
    Product,
    TreeMeasure,
    evaluate,
    measure_to_martingale,
)
from martree.kappa import kappa_of
from martree.norms import lp_norm, lp_nu_norm
from martree.riesz import riesz_potential
from martree.spacew import SubspaceW, check_second_condition, delta_vector, random_w_martingale
from martree.trace import (
    build_sharpness_trace_measure,
    capped_cascade_measure,
    frostman_constant,
    trace_experiment_l1,
    trace_experiment_p,
)
import oracles
from tests.test_riesz import ALLOWANCE, LEAF_10, assert_report_matches, oracle_report


def delta_w():
    return SubspaceW.from_blocks([delta_vector(3)[:, None]], 3, 1)


def span_w():
    return SubspaceW.from_blocks([np.array([1.0, -1.0, 0.0])[:, None]], 3, 1)


class TestFrostmanConstant:
    def test_uniform_alpha_zero(self):
        spec = FiltrationSpec(3, 5, 1)
        nu = TreeMeasure(spec, np.full(spec.leaves, 1.0 / spec.leaves))
        assert frostman_constant(nu, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_unit_leaf_mass_grows(self):
        for depth in (3, 5, 7):
            spec = FiltrationSpec(3, depth, 1)
            mass = np.zeros(spec.leaves)
            mass[0] = 1.0
            nu = TreeMeasure(spec, mass)
            alpha = 0.5
            assert frostman_constant(nu, alpha, 1.0) == pytest.approx(
                3.0 ** ((1 - alpha) * depth), rel=1e-12
            )

    def test_monotone_in_alpha(self):
        spec = FiltrationSpec(3, 4, 1)
        rng = np.random.default_rng(0)
        mass = rng.random(spec.leaves)
        mass /= mass.sum()
        nu = TreeMeasure(spec, mass)
        values = [frostman_constant(nu, a, 2.0) for a in (0.9, 0.6, 0.3, 0.0)]
        assert all(x <= y * (1 + 1e-12) for x, y in zip(values, values[1:]))

    def test_rejects_signed(self):
        spec = FiltrationSpec(3, 2, 1)
        with pytest.raises(ValueError):
            frostman_constant(TreeMeasure(spec, np.linspace(-1, 1, 9)), 0.5, 1.0)

    def test_rejects_a_nan_mass(self):
        # a NaN passes a test for negative masses, and the constant then read 0.0
        spec = FiltrationSpec(3, 3, 1)
        mass = np.full(spec.leaves, 1.0 / spec.leaves)
        mass[4] = np.nan
        with pytest.raises(ValueError, match="without NaN masses"):
            frostman_constant(TreeMeasure(spec, mass), 0.5, 1.0)

    def test_root_atom_lower_bound(self):
        # the level-0 atom forces C >= nu(T)^{1/p}
        spec = FiltrationSpec(3, 4, 1)
        rng = np.random.default_rng(4)
        for _ in range(10):
            nu = TreeMeasure(spec, rng.random(spec.leaves))
            for alpha, p in ((0.3, 1.0), (0.7, 2.0)):
                assert frostman_constant(nu, alpha, p) >= nu.total() ** (1 / p) * (1 - 1e-12)


class TestCappedCascade:
    def test_cap_and_mass(self):
        spec = FiltrationSpec(3, 8, 1)
        for seed in range(10):
            nu = capped_cascade_measure(spec, alpha=0.9, p=1.0, seed=seed)
            assert nu.total() == pytest.approx(1.0, abs=1e-12)
            assert np.all(nu.leaf_mass >= 0)
            assert frostman_constant(nu, 0.9, 1.0) <= 1.0 + 1e-9

    def test_cap_p_two(self):
        spec = FiltrationSpec(3, 6, 1)
        nu = capped_cascade_measure(spec, alpha=0.8, p=2.0, seed=3)
        assert frostman_constant(nu, 0.8, 2.0) <= 1.0 + 1e-9

    def test_deterministic(self):
        spec = FiltrationSpec(3, 5, 1)
        a = capped_cascade_measure(spec, 0.9, 1.0, seed=7)
        b = capped_cascade_measure(spec, 0.9, 1.0, seed=7)
        assert np.array_equal(a.leaf_mass, b.leaf_mass)

    def test_infeasible_cap_rejected(self):
        spec = FiltrationSpec(3, 4, 1)
        with pytest.raises(ValueError):
            capped_cascade_measure(spec, alpha=0.2, p=2.0, seed=0)


class TestTraceP:
    def test_zero_measure_zero_ratios(self):
        spec = FiltrationSpec(3, 6, 1)
        nu = TreeMeasure(spec, np.zeros(spec.leaves))
        report = trace_experiment_p(nu, span_w(), alpha=0.5, p=2.0, trials=3, seed=0, depths=range(4, 7))
        assert np.all(report.ratios == 0.0)

    def test_uniform_reference_reduces_to_plain_lp(self):
        p = 2.0
        alpha = (p - 1) / p
        spec = FiltrationSpec(3, 6, 1)
        nu = TreeMeasure(spec, np.full(spec.leaves, 1.0 / spec.leaves))
        W = span_w()
        from martree.spacew import random_w_martingale

        F = random_w_martingale(W, spec, seed=1)
        img = oracles.level(riesz_potential(F, alpha), 6)
        assert lp_nu_norm(img[0], nu, p) == pytest.approx(lp_norm(*img, p), rel=1e-12)

    def test_cascade_reference_bounded(self):
        p = 2.0
        spec = FiltrationSpec(3, 9, 2)
        nu = capped_cascade_measure(FiltrationSpec(3, 9, 1), alpha=(p - 1) / p + 0.1, p=p, seed=5)
        W = SubspaceW.random(3, 2, 2, seed=7)
        assert check_second_condition(W)[0]
        report = trace_experiment_p(nu, W, alpha=(p - 1) / p + 0.1, p=p, trials=10, seed=2, depths=range(4, 10))
        assert report.verdict == "BOUNDED"


@pytest.mark.parametrize("experiment", [trace_experiment_p, trace_experiment_l1])
def test_depths_beyond_the_measure_rejected(experiment):
    nu = capped_cascade_measure(FiltrationSpec(3, 6, 1), alpha=0.9, p=2.0, seed=0)
    kwargs = {"p": 2.0} if experiment is trace_experiment_p else {}
    with pytest.raises(ValueError, match="depths end at 7, beyond the measure's depth 6"):
        experiment(nu, span_w(), alpha=0.9, trials=1, depths=range(4, 8), **kwargs)


class TestTraceL1:
    def test_zero_subspace_vacuous(self):
        spec = FiltrationSpec(3, 6, 1)
        nu = capped_cascade_measure(spec, alpha=0.9, p=1.0, seed=1)
        report = trace_experiment_l1(nu, SubspaceW.zero(3, 1), alpha=0.9, trials=2, seed=0, depths=range(4, 7))
        assert np.all(report.ratios == 0.0)
        assert report.verdict == "BOUNDED"

    def test_span_w_above_threshold_bounded(self):
        # alpha = 0.9 clears -kappa'(1)/log 3 = 2 log 2/(3 log 3) ~ 0.4206
        spec = FiltrationSpec(3, 9, 1)
        nu = capped_cascade_measure(spec, alpha=0.9, p=1.0, seed=2)
        report = trace_experiment_l1(nu, span_w(), alpha=0.9, trials=12, seed=1, depths=range(4, 10))
        assert report.verdict == "BOUNDED"
        running = np.maximum.accumulate(report.ratios)
        assert running[-1] <= running[2] * (1 + 1e-9)
        assert report.details["interp_bound_holds"]
        if report.details["tree_constants"]:
            assert np.isfinite(max(report.details["tree_constants"]))

    def test_below_threshold_reported_not_asserted(self):
        # exploratory: nothing is guaranteed either way below the threshold
        spec = FiltrationSpec(3, 7, 1)
        nu = capped_cascade_measure(spec, alpha=0.2, p=1.0, seed=3)
        report = trace_experiment_l1(nu, span_w(), alpha=0.2, trials=5, seed=4, depths=range(4, 8))
        assert report.verdict in ("BOUNDED", "GROWING")


class TestNecessityWitness:
    def test_indicator_martingale_attains_frostman_ratio(self):
        # per atom: the uniform-on-omega density martingale drives the ratio
        # above (1 - 1/m) times that atom's Frostman quotient.
        p, alpha = 2.0, 0.5
        spec = FiltrationSpec(3, 4, 1)
        rng = np.random.default_rng(9)
        mass = rng.random(spec.leaves)
        mass /= mass.sum()
        nu = TreeMeasure(spec, mass)
        for level in range(spec.depth + 1):
            level_mass = nu.level_mass(level)
            for idx in range(3**level):
                if level_mass[idx] <= 0:
                    continue
                span = 3 ** (spec.depth - level)
                leaf = np.zeros(spec.leaves)
                leaf[idx * span : (idx + 1) * span] = 1.0 / span
                F = measure_to_martingale(TreeMeasure(spec, leaf))
                img, _ = oracles.level(riesz_potential(F, alpha), spec.depth)
                ratio = lp_nu_norm(img, nu, p) / 1.0  # ||F||_{L_1} = 1
                quotient = level_mass[idx] ** (1 / p) * 3.0 ** ((1 - alpha) * level)
                assert ratio >= (1 - 1 / 3) * quotient * (1 - 1e-9)


class TestSharpnessConstruction:
    def test_gamma_range_guard(self):
        spec = FiltrationSpec(3, 6, 1)
        with pytest.raises(ValueError):
            build_sharpness_trace_measure(delta_w(), gamma=1.5, spec=spec)
        with pytest.raises(ValueError):
            build_sharpness_trace_measure(delta_w(), gamma=0.0, spec=spec)

    def test_nonlinear_kappa_refused(self):
        spec = FiltrationSpec(3, 6, 1)
        with pytest.raises(ValueError, match="linear"):
            build_sharpness_trace_measure(span_w(), gamma=0.2, spec=spec)

    def test_convexity_bound_two_kappa_half(self):
        # 2 kappa(1/2) <= kappa(0), with equality exactly in the linear case.
        for W, linear in ((delta_w(), True), (span_w(), False)):
            k0 = kappa_of(W, 0.0, seed=0).value
            kh = kappa_of(W, 0.5, seed=0).value
            assert 2 * kh <= k0 + 1e-9
            assert (abs(2 * kh - k0) < 1e-9) == linear

    def test_delta_w_construction(self):
        spec = FiltrationSpec(3, 12, 1)
        nu, report = build_sharpness_trace_measure(delta_w(), gamma=0.4, spec=spec, depths=range(4, 13))
        assert report.alpha == pytest.approx(0.6, abs=1e-9)
        # the reference measure keeps a depth-stable Frostman constant
        cs = report.frostman_constants
        assert cs.max() / cs.min() <= 2.0
        # partial sums grow linearly at exactly the derived rate 2/3
        assert report.derived_constant == pytest.approx(2 / 3, abs=1e-9)
        assert report.slope == pytest.approx(report.derived_constant, rel=1e-9)
        # the exact L_1(nu) norms of the Riesz image grow as well
        assert report.exact_l1_nu[-1] > report.exact_l1_nu[0] * 1.5
        # nu is a genuine probability-sized positive measure
        assert nu.total() == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("depth, depths", [(3, None), (4, None), (6, range(1, 7)), (8, None), (8, [7, 3, 8, 5, 3])])
    def test_one_level_at_a_time_matches_whole_martingales(self, depth, depths, monkeypatch):
        built = []  # the product the construction reads G's levels from
        monkeypatch.setattr(trace, "Product", lambda m, v: built.append(Product(m, v)) or built[-1])
        nu, report = build_sharpness_trace_measure(delta_w(), gamma=0.4, spec=FiltrationSpec(3, depth, 1),
                                                   depths=depths)
        G = oracles.multiplicative_martingale(FiltrationSpec(3, depth, 1), built[0].v)
        leaves, constants, exact, partial_sums = oracles.sharpness_trace(G, 0.4, report.alpha, report.depths)
        assert nu.leaf_mass.tobytes() == leaves.tobytes()
        assert report.frostman_constants.tobytes() == constants.tobytes()
        assert report.exact_l1_nu.tobytes() == exact.tobytes()
        assert len(built) == 1 and report.partial_sums.tobytes() == partial_sums.tobytes()

    def test_depth_ten_holds_three_leaf_arrays(self):
        # nu, the sweep's level and one more leaf-size array (the level read, its squares, or nu's last level
        # mass), plus G_9 or the sweep's previous level (a third of a leaf array each) and small temporaries
        spec = FiltrationSpec(3, 10, 1)
        peak = oracles.traced_peak(lambda: build_sharpness_trace_measure(delta_w(), gamma=0.4, spec=spec))
        assert peak < 3 * LEAF_10 + LEAF_10 // 3 + ALLOWANCE

    @pytest.mark.parametrize("depths", [range(0, 5), range(3, 8)])
    def test_depths_outside_the_measure_rejected(self, depths):
        with pytest.raises(ValueError, match=r"depths must lie in \[1, 6\]"):
            build_sharpness_trace_measure(delta_w(), gamma=0.4, spec=FiltrationSpec(3, 6, 1), depths=depths)


# ---------------------------------------------------------------- parent oracles
#
# The two trace experiments as they stood before they shared one loop and
# returned EmbeddingReport: their own trial loops, and trace_experiment_l1
# running the per-tree checks inside its loop.  See tests/test_riesz.py.


def trace_experiment_p_oracle(nu, W, alpha, p, trials=20, seed=0, depths=None, scale_profile=None):
    if depths is None:
        depths = list(range(4, nu.spec.depth + 1))
    spec = FiltrationSpec(nu.spec.m, max(depths), W.ell)
    constants = np.array([frostman_constant(nu.truncated(d), alpha, p) for d in depths])
    per_trial = np.zeros((len(depths), trials))
    for t in range(trials):
        F = random_w_martingale(W, spec, scale_profile=scale_profile, seed=[seed, t])
        for i, d in enumerate(depths):
            Fd = F.truncated(d)
            img, _ = oracles.level(riesz_potential(Fd, alpha), d)
            num = lp_nu_norm(img, nu.truncated(d), p)
            den = float(np.linalg.norm(evaluate(Fd, d), axis=1).mean())
            if den > 0:
                per_trial[i, t] = num / den
    per_depth = per_trial.max(axis=1)
    details = {"alpha": alpha, "p": p, "frostman_constants": constants, "trials": trials,
               "per_trial": per_trial}
    return oracle_report(depths, per_depth, details)


def trace_experiment_l1_oracle(nu, W, alpha, trials=20, seed=0, depths=None, scale_profile=None,
                               epsilon=0.1, interp_p=2.0):
    if depths is None:
        depths = list(range(4, nu.spec.depth + 1))
    spec = FiltrationSpec(nu.spec.m, max(depths), W.ell)
    constants = np.array([frostman_constant(nu.truncated(d), alpha, 1.0) for d in depths])
    per_trial = np.zeros((len(depths), trials))
    tree_constants = []
    interp_ok = True
    interp_max_ratio = 0.0
    full_nu = nu.truncated(max(depths))
    nu_levels = [full_nu.level_mass(n) for n in range(max(depths) + 1)]
    c_frostman = constants[-1]
    for t in range(trials):
        F = random_w_martingale(W, spec, scale_profile=scale_profile, seed=[seed, t])
        for i, d in enumerate(depths):
            Fd = F.truncated(d)
            img, _ = oracles.level(riesz_potential(Fd, alpha), d)
            num = lp_nu_norm(img, nu.truncated(d), 1.0)
            den = float(np.linalg.norm(evaluate(Fd, d), axis=1).mean())
            if den > 0:
                per_trial[i, t] = num / den
        if t < 3:
            tree_c, interp_r = verify_tree_trace(
                F, classify_atoms(F, epsilon), full_nu, nu_levels, alpha, interp_p, c_frostman
            )
            tree_constants.extend(tree_c)
            interp_max_ratio = max(interp_max_ratio, interp_r)
            interp_ok = interp_ok and interp_r <= 1.0 + 1e-9
    per_depth = per_trial.max(axis=1)
    details = {
        "alpha": alpha,
        "p": 1.0,
        "frostman_constants": constants,
        "trials": trials,
        "tree_constants": tree_constants,
        "interp_bound_holds": interp_ok,
        "interp_max_ratio": interp_max_ratio,
        "per_trial": per_trial,
    }
    return oracle_report(depths, per_depth, details)


# m, ell, dim W, p, alpha, trials, depth, depths (None: the default)
TRACE_CASES = [
    (3, 1, 1, 1.5, 0.9, 1, 7, range(2, 8)),
    (3, 2, 3, 2.0, 0.6, 5, 7, None),
    (4, 1, 2, 3.0, 0.9, 2, 5, range(1, 6)),
    (4, 2, 2, 1.5, 0.4, 5, 5, range(2, 5)),
    (5, 1, 3, 2.0, 0.7, 2, 4, range(2, 5)),
    (5, 2, 5, 3.0, 0.8, 1, 5, None),
]


class TestParentOracles:
    @pytest.mark.parametrize("m, ell, dim, p, alpha, trials, depth, depths", TRACE_CASES)
    def test_trace_experiment_p(self, m, ell, dim, p, alpha, trials, depth, depths):
        nu = capped_cascade_measure(FiltrationSpec(m, depth, 1), alpha, p, seed=m)
        W = SubspaceW.random(m, ell, dim, seed=ell)
        args = (nu, W, alpha, p, trials, 1, depths)
        assert_report_matches(trace_experiment_p(*args), trace_experiment_p_oracle(*args))

    @pytest.mark.parametrize("m, ell, dim, p, alpha, trials, depth, depths", TRACE_CASES)
    def test_trace_experiment_l1(self, m, ell, dim, p, alpha, trials, depth, depths):
        nu = capped_cascade_measure(FiltrationSpec(m, depth, 1), alpha, 1.0, seed=m + 1)
        W = SubspaceW.random(m, ell, dim, seed=ell + 1)
        args = (nu, W, alpha, trials, 2, depths, None, 0.05 * m, 1.0 + 0.5 * ell)
        assert_report_matches(trace_experiment_l1(*args), trace_experiment_l1_oracle(*args))

    def test_span_w_l1_matches(self):
        # the sharp example: flat trees and a Frostman constant near 1
        nu = capped_cascade_measure(FiltrationSpec(3, 8, 1), alpha=0.9, p=1.0, seed=2)
        args = (nu, span_w(), 0.9, 4, 1, range(3, 9))
        assert_report_matches(trace_experiment_l1(*args), trace_experiment_l1_oracle(*args))


@pytest.mark.parametrize("m, ell, dim, p, alpha, trials, depth, depths", TRACE_CASES)
def test_l1_ratios_are_the_p_one_ratios(m, ell, dim, p, alpha, trials, depth, depths):
    # martree trace-embed-l1 writes trace_experiment_p(p=1.0) in place of
    # trace_experiment_l1, whose per-tree controls it never wrote.
    nu = capped_cascade_measure(FiltrationSpec(m, depth, 1), alpha, 1.0, seed=m + 1)
    W = SubspaceW.random(m, ell, dim, seed=ell + 1)
    ours = trace_experiment_p(nu, W, alpha, 1.0, trials, 2, depths)
    ref = trace_experiment_l1(nu, W, alpha, trials, 2, depths)
    assert ours.depths == ref.depths and ours.verdict == ref.verdict
    for a, b in [(ours.ratios, ref.ratios), (ours.details["per_trial"], ref.details["per_trial"]),
                 (np.float64(ours.slope), np.float64(ref.slope))]:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_p_below_one_rejected():
    # the check is frostman_constant's, made before any trial is drawn
    spec = FiltrationSpec(3, 4, 1)
    nu = TreeMeasure(spec, np.full(spec.leaves, 1.0 / spec.leaves))
    with pytest.raises(ValueError, match="p must be >= 1, got 0.5"):
        trace_experiment_p(nu, span_w(), alpha=0.5, p=0.5, trials=1, depths=[4])


@pytest.mark.parametrize("interp_p", [1.0, 0.5, np.nan])
def test_bad_interp_p_rejected(interp_p, monkeypatch):
    # 1.0 would divide by zero and 0.5 give q = -1; both checks run first
    spec = FiltrationSpec(3, 4, 1)
    nu = TreeMeasure(spec, np.full(spec.leaves, 1.0 / spec.leaves))

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before interp_p was checked")

    monkeypatch.setattr(trace, "trace_experiment_p", no_trials)
    with pytest.raises(ValueError, match="interp_p must be finite and > 1"):
        trace_experiment_l1(nu, span_w(), alpha=0.5, trials=1, depths=[4], interp_p=interp_p)
    F = random_w_martingale(span_w(), spec, seed=0)
    nu_levels = [nu.level_mass(n) for n in range(spec.depth + 1)]
    with pytest.raises(ValueError, match="p must be finite and > 1"):
        verify_tree_trace(F, classify_atoms(F, 0.1), nu, nu_levels, 0.5, interp_p, 1.0)
