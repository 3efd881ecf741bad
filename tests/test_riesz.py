"""Riesz potential and the three embedding experiments."""

import numpy as np
import pytest

from martree import filtration, riesz, trace
from martree.filtration import FiltrationSpec, Martingale, evaluate
from martree.norms import lorentz_p1_from_distribution, lp_norm, weak_lp_norm
from martree.riesz import (
    _random_martingale,
    delta_counterexample,
    delta_martingale,
    hls_experiment,
    lorentz_sum_lhs,
    main_inequality_experiment,
    riesz_potential,
    trend_verdict,
)
from martree.spacew import SubspaceW, delta_vector, random_w_martingale
import oracles
from oracles import difference, level, simple
from tests.test_filtration import random_martingale


class TestRieszPotential:
    def test_alpha_zero_is_identity(self):
        spec = FiltrationSpec(3, 3, 2)
        F = random_martingale(spec, 0)
        G = riesz_potential(F, 0.0)
        assert np.array_equal(G.f0, F.f0)
        for a, b in zip(G.diffs, F.diffs):
            assert np.array_equal(a, b)

    def test_levelwise_scaling(self):
        spec = FiltrationSpec(3, 4, 1)
        F = random_martingale(spec, 1)
        alpha = 0.7
        G = riesz_potential(F, alpha)
        for n in range(4):
            assert np.allclose(G.diffs[n], 3.0 ** (-alpha * (n + 1)) * F.diffs[n], rtol=1e-15)

    def test_semigroup_property(self):
        spec = FiltrationSpec(3, 4, 2)
        F = random_martingale(spec, 2)
        a, b = 0.3, 0.45
        lhs = riesz_potential(riesz_potential(F, a), b)
        rhs = riesz_potential(F, a + b)
        for x, y in zip(lhs.diffs, rhs.diffs):
            assert np.allclose(x, y, rtol=1e-12)

    def test_linear(self):
        spec = FiltrationSpec(3, 3, 1)
        F, G = random_martingale(spec, 3), random_martingale(spec, 4)
        s = riesz_potential(F + G, 0.5)
        t = riesz_potential(F, 0.5) + riesz_potential(G, 0.5)
        for x, y in zip(s.diffs, t.diffs):
            assert np.allclose(x, y, atol=1e-14)

    def test_rejects_negative_alpha(self):
        spec = FiltrationSpec(3, 2, 1)
        with pytest.raises(ValueError):
            riesz_potential(Martingale.zero(spec), -0.1)


class TestDeltaConstruction:
    def test_l1_stays_below_two(self):
        for depth in (4, 8, 11):
            spec = FiltrationSpec(3, depth, 1)
            F = delta_martingale(spec)
            for n in range(1, depth + 1):
                l1 = lp_norm(*level(F.truncated(n), n), 1.0)
                assert l1 == pytest.approx(2.0 * (1.0 - 3.0 ** (-n)), rel=1e-12)

    def test_difference_norms_match_closed_form(self):
        # ||f_n||_p = m^{((p-1)/p) n} * c with c^p = m^{-p}((m-1)^p + (m-1)).
        spec = FiltrationSpec(3, 8, 1)
        F = delta_martingale(spec)
        p = 2.0
        c = (3.0 ** (-p) * (2.0**p + 2.0)) ** (1 / p)
        for n in range(1, 9):
            expected = 3.0 ** ((p - 1) / p * n) * c
            assert lp_norm(*difference(F, n), p) == pytest.approx(expected, rel=1e-12)

    def test_counterexample_growth_report(self):
        spec = FiltrationSpec(3, 12, 1)
        report = delta_counterexample(2.0, spec, depths=range(4, 13))
        assert report.verdict == "GROWING"
        assert report.details["l1_bounded_by_two"]
        # increments of the power sum are exactly the derived constant 2/3
        terms = report.details["per_level_terms"]
        assert np.allclose(terms, report.details["per_level_constant"], rtol=1e-12)
        assert report.details["per_level_constant"] == pytest.approx(2 / 3, rel=1e-12)
        slope = np.polyfit(report.depths, report.ratios, 1)[0]
        assert slope == pytest.approx(2 / 3, rel=1e-12)


class TestHls:
    def test_parameter_validation(self):
        spec = FiltrationSpec(3, 6, 1)
        with pytest.raises(ValueError):
            hls_experiment(2.0, 2.0, spec)
        with pytest.raises(ValueError):
            hls_experiment(1.0, 2.0, spec)

    def test_single_scale_ratio_at_most_one(self):
        # One nonzero difference level: the local embedding gives ratio <= 1,
        # with the v_delta block keeping it bounded below across levels.
        p, q = 2.0, 4.0
        alpha = (q - p) / (q * p)
        spec = FiltrationSpec(3, 6, 1)
        ratios = []
        for n in range(1, 6):
            diffs = [np.zeros((3**k, 3, 1)) for k in range(6)]
            block = np.zeros((3**n, 3, 1))
            block[0, :, 0] = delta_vector(3)
            diffs[n] = block
            F = Martingale(spec, np.zeros(1), diffs)
            num = lp_norm(*level(riesz_potential(F, alpha), 6), q)
            den = lp_norm(*level(F, 6), p)
            ratios.append(num / den)
        ratios = np.array(ratios)
        assert np.all(ratios <= 1.0 + 1e-12)
        # sharpness of the exponent: the ratio does not decay with the level
        assert ratios.max() / ratios.min() == pytest.approx(1.0, rel=1e-10)

    def test_random_inputs_bounded(self):
        spec = FiltrationSpec(3, 8, 1)
        report = hls_experiment(2.0, 4.0, spec, trials=10, seed=0, depths=range(4, 9))
        assert report.verdict == "BOUNDED"


class TestMainInequality:
    def test_single_level_bounded_by_p(self):
        # One nonzero difference level reduces to the local Lorentz embedding
        # with constant p.
        p = 2.0
        spec = FiltrationSpec(3, 5, 2)
        W = SubspaceW.random(3, 2, 2, seed=1)
        rng = np.random.default_rng(2)
        for n in range(5):
            diffs = [np.zeros((3**k, 3, 2)) for k in range(5)]
            coeffs = rng.standard_normal((3**n, W.dim))
            diffs[n] = np.tensordot(coeffs, W.basis, axes=(1, 0))
            F = Martingale(spec, np.zeros(2), diffs)
            lhs = lorentz_sum_lhs(F, p)
            l1 = lp_norm(*level(F, 5), 1.0)
            assert lhs <= p * l1 * (1 + 1e-10)

    def test_triangle_route(self):
        # The Lorentz norm of the Riesz image is controlled by the weighted sum
        # of difference norms: our normalization is subadditive, constant 1.
        p = 2.0
        spec = FiltrationSpec(3, 6, 2)
        W = SubspaceW.random(3, 2, 2, seed=3)
        for seed in range(5):
            F = random_w_martingale(W, spec, seed=seed)
            img = evaluate(riesz_potential(F, (p - 1) / p), 6)
            img = img - img.mean(axis=0)  # drop F_0 = 0 anyway
            assert lorentz_p1_from_distribution(*simple(img, 6), p) <= 2.0 * lorentz_sum_lhs(F, p) + 1e-12

    def test_weak_type_endpoint(self):
        # I_{(p-1)/p} maps L_1 into weak L_p: ratios stay flat across depths.
        p = 2.0
        spec = FiltrationSpec(3, 9, 1)
        rng = np.random.default_rng(5)
        from martree.filtration import TreeMeasure, measure_to_martingale

        per_depth = []
        for d in range(4, 10):
            sub = spec.truncated(d)
            worst = 0.0
            for _ in range(5):
                mass = rng.random(sub.leaves)
                mass /= mass.sum()
                F = measure_to_martingale(TreeMeasure(sub, mass))
                img = level(riesz_potential(F, (p - 1) / p), d)
                worst = max(worst, weak_lp_norm(*img, p))
            per_depth.append(worst)
        per_depth = np.array(per_depth)
        assert per_depth[-1] <= per_depth.max() * (1 + 1e-9)
        assert per_depth.max() / per_depth.min() < 2.0

    def test_delta_mode_grows(self):
        spec = FiltrationSpec(3, 10, 1)
        W = SubspaceW.from_blocks([delta_vector(3)[:, None]], 3, 1)
        report = main_inequality_experiment(W, 2.0, spec, depths=range(4, 11), use_delta=True)
        assert report.verdict == "GROWING"
        assert report.ratios[-1] / report.ratios[0] > 1.5

    def test_second_condition_w_bounded(self):
        spec = FiltrationSpec(3, 8, 2)
        W = SubspaceW.random(3, 2, 2, seed=7)
        from martree.spacew import check_second_condition

        assert check_second_condition(W)[0]
        report = main_inequality_experiment(W, 2.0, spec, trials=20, seed=0, depths=range(4, 9))
        assert report.verdict == "BOUNDED"
        running_max = np.maximum.accumulate(report.ratios)
        # no new records at the deep end
        assert running_max[-1] <= running_max[2] * (1 + 1e-9)


class TestOneSweepPerTrial:
    """Every ratio experiment reads each depth from the levels its trial
    martingales keep: one prefix sweep per martingale, no truncated copy."""

    @pytest.fixture
    def swept(self, monkeypatch):
        """The ``diffs`` of every sweep, in order, each kept alive so that
        no two are told apart by a reused id."""
        swept = []
        sweep = filtration._sweep

        def counted(spec, f0, diffs, n):
            swept.append(diffs)
            return sweep(spec, f0, diffs, n)

        monkeypatch.setattr(filtration, "_sweep", counted)
        return swept

    @staticmethod
    def drawn(monkeypatch, module, name):
        """The martingales ``module.name`` returns, as it returns them."""
        drawn = []
        make = getattr(module, name)

        def recorded(*args, **kwargs):
            drawn.append(make(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(module, name, recorded)
        return drawn

    @pytest.mark.parametrize("use_delta", [False, True])
    def test_main_inequality(self, swept, monkeypatch, use_delta):
        spec, trials = FiltrationSpec(3, 7, 1 if use_delta else 2), 4
        W = SubspaceW.random(3, spec.ell, 1, seed=1)
        drawn = self.drawn(monkeypatch, riesz, "delta_martingale" if use_delta else "random_w_martingale")
        lorentz_calls = []
        lorentz = riesz.lorentz_p1_from_distribution

        def counted_lorentz(*args):
            lorentz_calls.append(args)
            return lorentz(*args)

        monkeypatch.setattr(riesz, "lorentz_p1_from_distribution", counted_lorentz)
        report = main_inequality_experiment(W, 2.0, spec, trials=trials, seed=2, use_delta=use_delta)
        assert [id(diffs) for diffs in swept] == [id(F.diffs) for F in drawn]
        assert len(drawn) == report.details["trials"] == (1 if use_delta else trials)
        # one Lorentz norm per trial and level, not one per trial, depth and level below it
        assert len(lorentz_calls) == len(drawn) * spec.depth

    def test_delta_counterexample(self, swept, monkeypatch):
        # one sweep, over the delta martingale's levels as they are formed: no martingale is built
        drawn = self.drawn(monkeypatch, riesz, "delta_martingale")
        monkeypatch.setattr(riesz, "_sweep", filtration._sweep)  # the counted sweep, as riesz imports it
        delta_counterexample(2.0, FiltrationSpec(3, 8, 1))
        assert drawn == [] and len(swept) == 1 and not isinstance(swept[0], (list, tuple))

    def test_trace_experiment_p(self, swept, monkeypatch):
        drawn = self.drawn(monkeypatch, trace, "random_w_martingale")
        nu = trace.capped_cascade_measure(FiltrationSpec(3, 7, 1), 0.9, 2.0, seed=1)
        trace.trace_experiment_p(nu, SubspaceW.random(3, 1, 1, seed=3), 0.9, 2.0, trials=3, seed=4)
        # each trial and its Riesz image, one sweep each
        assert len(drawn) == 3 and len(swept) == 6 and len({id(diffs) for diffs in swept}) == 6
        assert [id(diffs) for diffs in swept[::2]] == [id(F.diffs) for F in drawn]

    @pytest.mark.parametrize("trials", [2, 5])
    def test_trace_experiment_l1(self, swept, monkeypatch, trials):
        drawn = self.drawn(monkeypatch, trace, "random_w_martingale")
        nu = trace.capped_cascade_measure(FiltrationSpec(3, 6, 1), 0.9, 1.0, seed=1)
        report = trace.trace_experiment_l1(nu, SubspaceW.random(3, 1, 1, seed=3), 0.9, trials=trials, seed=4)
        # the per-tree controls read the first trials as the ratio loop drew and swept them
        assert len(drawn) == trials and len(swept) == 2 * trials and len({id(diffs) for diffs in swept}) == 2 * trials
        assert [id(diffs) for diffs in swept[::2]] == [id(F.diffs) for F in drawn]
        assert report.details["tree_constants"]


@pytest.mark.parametrize("depth", range(1, 9))
def test_delta_martingale_matches_the_sum_oracle(depth):
    spec = FiltrationSpec(3, depth, 1)
    F, expected = delta_martingale(spec), oracles.delta_martingale(spec)
    assert F.f0.tobytes() == expected.f0.tobytes()
    assert [d.tobytes() for d in F.diffs] == [d.tobytes() for d in expected.diffs]
    raw = np.concatenate([d.ravel() for d in oracles.multiplicative_martingale(spec, delta_vector(3)).diffs])
    kept = np.concatenate([d.ravel() for d in F.diffs])
    assert not np.signbit(kept[kept == 0]).any()  # the sum's +0.0, never -0.0 ...
    assert np.signbit(raw[raw == 0]).any() == (depth >= 2)  # ... where the product martingale has -0.0


@pytest.mark.parametrize("depth", range(2, 10))
@pytest.mark.parametrize("p", [2.0, 1.5])
def test_delta_counterexample_matches_the_whole_martingale_oracle(depth, p):
    spec = FiltrationSpec(3, depth, 1)
    for depths in (list(range(1, depth + 1)), [depth, 1], sorted({depth, 1, (depth + 1) // 2}, reverse=True)):
        report = delta_counterexample(p, spec, depths=depths)
        terms, power_sums, l1_norms = oracles.delta_counterexample(p, spec, depths)
        assert report.details["per_level_terms"].tobytes() == terms.tobytes()
        assert report.ratios.tobytes() == power_sums.tobytes()
        assert report.details["l1_bounded_by_two"] == bool(np.all(l1_norms <= 2.0 + 1e-12))


# Bytes of one leaf-size float array at depth 10, and the small temporaries (kappa's search, numpy's
# scalars, the report) a memory bound allows beyond the arrays it counts.
LEAF_10 = 3**10 * 8
ALLOWANCE = 96 * 1024


def test_delta_counterexample_at_depth_ten_holds_two_leaf_arrays():
    # the level read and its magnitudes, or the sweep's level and the L_1 norm's powers, plus G_9 or the sweep's
    # previous level (a third of a leaf array each): a level kept by a generator, or G held, is one more
    peak = oracles.traced_peak(lambda: delta_counterexample(2.0, FiltrationSpec(3, 10, 1)))
    assert peak < 2 * LEAF_10 + LEAF_10 // 3 + ALLOWANCE


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("depths", [[4], [5, 5], (6,)])
def test_trend_needs_two_distinct_depths(depths):
    with pytest.raises(ValueError, match=r"a trend needs at least two distinct depths, got \[\d\]$"):
        trend_verdict(depths, np.ones(len(depths)))
    assert trend_verdict([5, 4, 5], np.ones(3)).predicted_rate == pytest.approx(np.log(5 / 4))


@pytest.mark.parametrize("depths", [range(0, 6), range(2, 8)])
def test_depths_outside_the_kept_levels_rejected(depths):
    spec = FiltrationSpec(3, 6, 1)
    W = SubspaceW.from_blocks([delta_vector(3)[:, None]], 3, 1)
    for run in (lambda: delta_counterexample(2.0, spec, depths=depths),
                lambda: main_inequality_experiment(W, 2.0, spec, trials=1, depths=depths),
                lambda: hls_experiment(2.0, 4.0, spec, trials=1, depths=depths)):
        with pytest.raises(ValueError, match=rf"depths must lie in \[1, 6\], got {depths[0]} to {depths[-1]}"):
            run()


# ---------------------------------------------------------------- parent oracles
#
# The experiments as they stood before they shared ``ratio_trials`` and
# ``trend_verdict``, each with its own trial loop and report.  The shared
# versions draw the same martingales and sum in the same order, so every
# report field and every details entry must agree bit for bit.


def trend_verdict_oracle(depths, ratios):
    lo, hi = min(depths), max(depths)
    predicted = float(np.log(hi / lo) / (hi - lo))
    x = np.asarray(depths, dtype=float)
    y = np.asarray(ratios, dtype=float)
    keep = y > 0
    slope = float(np.polyfit(x[keep], np.log(y[keep]), 1)[0]) if keep.sum() >= 2 else 0.0
    growing = len(depths) >= 5 and slope > 0.5 * predicted
    return ("GROWING" if growing else "BOUNDED"), slope, predicted


def oracle_report(depths, ratios, details):
    verdict, slope, predicted = trend_verdict_oracle(depths, ratios)
    return {"depths": list(depths), "ratios": ratios, "verdict": verdict, "slope": slope,
            "predicted_rate": predicted, "details": details}


def hls_oracle(p, q, spec, trials=20, seed=0, depths=None):
    if depths is None:
        depths = list(range(4, spec.depth + 1))
    alpha = (q - p) / (q * p)
    per_trial = np.zeros((len(depths), trials))
    for i, d in enumerate(depths):
        sub = spec.truncated(d)
        for t in range(trials):
            F = _random_martingale(sub, seed=[seed, d, t])
            num = lp_norm(*level(riesz_potential(F, alpha), d), q)
            den = lp_norm(*level(F, d), p)
            if den > 0:
                per_trial[i, t] = num / den
    ratios = per_trial.max(axis=1)
    return oracle_report(depths, ratios, {"alpha": alpha, "trials": trials, "per_trial": per_trial})


def main_inequality_oracle(W, p, spec, trials=20, seed=0, depths=None, scale_profile=None,
                           use_delta=False):
    if depths is None:
        depths = list(range(4, spec.depth + 1))
    m = spec.m
    weight = lambda n: float(m) ** (-(p - 1) / p * n)

    def ratios_for_martingale(F):
        lorentz_terms = [
            weight(n) * lorentz_p1_from_distribution(*difference(F, n), p)
            for n in range(1, spec.depth + 1)
        ]
        besov_terms = [
            weight(n) * lp_norm(*difference(F, n), p)
            for n in range(1, spec.depth + 1)
        ]
        out = []
        for d in depths:
            lhs = sum(lorentz_terms[: d])
            besov = sum(besov_terms[: d])
            l1 = lp_norm(*level(F.truncated(d), d), 1.0)
            out.append((lhs, besov, l1))
        return out

    n_mart = 1 if use_delta else trials
    per_trial = np.zeros((len(depths), n_mart))
    per_depth_besov_max = np.zeros(len(depths))
    for t in range(n_mart):
        if use_delta:
            F = delta_martingale(spec)
        else:
            F = random_w_martingale(W, spec, scale_profile=scale_profile, seed=[seed, t])
        for i, (lhs, besov, l1) in enumerate(ratios_for_martingale(F)):
            if l1 > 0:
                per_trial[i, t] = lhs / l1
                per_depth_besov_max[i] = max(per_depth_besov_max[i], besov / l1)
    per_depth_ratio_max = per_trial.max(axis=1)
    details = {"besov_ratios": per_depth_besov_max, "trials": n_mart, "p": p, "per_trial": per_trial}
    return oracle_report(depths, per_depth_ratio_max, details)


def assert_report_matches(report, ref):
    """Each field and details entry has the oracle's dtype, shape and bytes."""
    assert report.depths == ref["depths"]
    assert report.details.keys() == ref["details"].keys()
    fields = [(name, getattr(report, name), ref[name])
              for name in ("ratios", "verdict", "slope", "predicted_rate")]
    fields += [(key, report.details[key], value) for key, value in ref["details"].items()]
    for name, ours, theirs in fields:
        a, b = np.asarray(ours), np.asarray(theirs)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def growing_profile(n):
    return 1.6**n


# m, ell, dim W, p, trials, depth, depths (None: the default), scale profile
MAIN_CASES = [
    (3, 1, 1, 1.5, 1, 7, range(2, 8), None),
    (3, 2, 3, 2.0, 5, 7, None, None),
    (3, 1, 2, 3.0, 2, 6, range(2, 7), growing_profile),
    (4, 1, 2, 3.0, 2, 6, range(3, 7), None),
    (4, 2, 4, 1.5, 5, 5, range(1, 6), growing_profile),
    (5, 1, 3, 2.0, 2, 5, None, None),
    (5, 2, 2, 3.0, 1, 4, range(2, 5), None),
]


class TestParentOracles:
    @pytest.mark.parametrize("m, ell, dim, p, trials, depth, depths, profile", MAIN_CASES)
    def test_main_inequality_random(self, m, ell, dim, p, trials, depth, depths, profile):
        W, spec = SubspaceW.random(m, ell, dim, seed=m + ell), FiltrationSpec(m, depth, ell)
        args = (W, p, spec, trials, 3, depths, profile)
        assert_report_matches(main_inequality_experiment(*args), main_inequality_oracle(*args))

    @pytest.mark.parametrize("m, depth", [(3, 8), (4, 6), (5, 5)])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_main_inequality_delta(self, m, depth, p):
        W, spec = SubspaceW.from_blocks([delta_vector(m)[:, None]], m, 1), FiltrationSpec(m, depth, 1)
        args = (W, p, spec, 7, 0, range(1, depth + 1), None, True)
        assert_report_matches(main_inequality_experiment(*args), main_inequality_oracle(*args))

    @pytest.mark.parametrize("m, ell, p, q, trials, depth", [
        (3, 1, 1.5, 3.0, 1, 6), (3, 2, 2.0, 4.0, 5, 6), (4, 1, 3.0, 5.0, 2, 5), (5, 2, 2.0, 2.5, 2, 4),
    ])
    def test_hls(self, m, ell, p, q, trials, depth):
        args = (p, q, FiltrationSpec(m, depth, ell), trials, 2, range(2, depth + 1))
        assert_report_matches(hls_experiment(*args), hls_oracle(*args))
