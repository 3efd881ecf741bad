"""Convex/flat decomposition, the flat forest, and the combinatorial bounds."""

import dataclasses
import pickle

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from martree import decomp, filtration, trace
from martree.decomp import (
    FlatForest,
    FlatTree,
    TreeGrowthReport,
    TreeSummationReport,
    atom_increments,
    classify_atoms,
    split_convex_flat,
    tree_leaf_values,
    verify_convex_lemma,
    verify_flat_tree_growth,
    verify_stepwise_identity,
    verify_tree_summation,
    verify_tree_trace,
)
from martree.filtration import (
    AtomId,
    FiltrationSpec,
    Martingale,
    TreeMeasure,
    evaluate,
    measure_to_martingale,
)
from martree.kappa import kappa_of
from martree.norms import h1_norm, lorentz_p1_from_distribution, lp_norm
from martree.riesz import delta_martingale
from martree.spacew import SubspaceW, delta_vector, random_w_martingale
import oracles
from oracles import evaluate_all, lp_norm_weighted
from tests.test_filtration import random_martingale


def labels_oracle(F, epsilon):
    """Re-derive every label directly from the definition, atom by atom."""
    spec = F.spec
    out = []
    for n in range(spec.depth):
        Fn = evaluate(F, n)
        Fn1 = evaluate(F, n + 1)
        labels = np.zeros(spec.atoms_at(n), dtype=bool)
        for i in range(spec.atoms_at(n)):
            base = 3.0 ** (-n) * np.linalg.norm(Fn[i]) if spec.m == 3 else None
            w_parent = float(spec.m) ** (-n)
            w_child = float(spec.m) ** (-(n + 1))
            children = Fn1[spec.m * i : spec.m * (i + 1)]
            e_next = w_child * sum(np.linalg.norm(c) for c in children)
            e_here = w_parent * np.linalg.norm(Fn[i])
            inc = e_next - e_here
            labels[i] = (inc >= epsilon * e_here) and (e_next > 0)
        out.append(labels)
    return out


class TestClassification:
    def test_nonnegative_martingale_all_flat(self):
        spec = FiltrationSpec(3, 4, 1)
        rng = np.random.default_rng(0)
        mu = TreeMeasure(spec, rng.random(spec.leaves))
        F = measure_to_martingale(mu)
        forest = classify_atoms(F, 0.01)
        assert forest.n_convex() == 0
        assert len(forest.trees) == 1
        assert forest.trees[0].root.level == 0

    def test_sign_flip_block_is_convex(self):
        spec = FiltrationSpec(3, 2, 1)
        diffs = [np.zeros((1, 3, 1)), np.zeros((3, 3, 1))]
        diffs[0][0, :, 0] = [1.0, -1.0, 0.0]
        # atom 2 at level 1 has F_1 = 0 and a nonzero block below it
        diffs[1][2, :, 0] = [2.0, -1.0, -1.0]
        F = Martingale(spec, np.zeros(1), diffs)
        forest = classify_atoms(F, 0.1)
        assert bool(forest.convex[1][2])

    def test_zero_martingale_all_flat(self):
        spec = FiltrationSpec(3, 3, 2)
        forest = classify_atoms(Martingale.zero(spec), 0.5)
        assert forest.n_convex() == 0

    def test_labels_match_definition_oracle(self):
        spec = FiltrationSpec(3, 4, 2)
        for seed in range(5):
            F = random_martingale(spec, seed)
            forest = classify_atoms(F, 0.1)
            oracle = labels_oracle(F, 0.1)
            for ours, ref in zip(forest.convex, oracle):
                assert np.array_equal(ours, ref)

    def test_forest_structure(self):
        spec = FiltrationSpec(3, 5, 2)
        for seed in range(5):
            F = random_martingale(spec, seed + 10)
            forest = classify_atoms(F, 0.2)
            seen = [np.zeros(spec.atoms_at(n), dtype=bool) for n in range(spec.depth)]
            for tree in forest.trees:
                for lvl, members in tree.members.items():
                    assert not np.any(seen[lvl][members])
                    seen[lvl][members] = True
                    assert not np.any(forest.convex[lvl][members])
                # root's parent is convex (or the root is at level 0)
                if tree.root.level > 0:
                    assert forest.convex[tree.root.level - 1][tree.root.index // 3]
            # every flat atom belongs to exactly one tree
            for n in range(spec.depth):
                assert np.array_equal(seen[n], ~forest.convex[n])

    def test_fruit_leaf_partition_of_each_root(self):
        spec = FiltrationSpec(3, 5, 2)
        F = random_martingale(spec, 3)
        forest = classify_atoms(F, 0.2)
        for tree in forest.trees:
            n0 = tree.root.level
            span = 3 ** (spec.depth - n0)
            base = tree.root.index * span
            covered = np.zeros(span, dtype=bool)
            for fruit in tree.fruits:
                frep = 3 ** (spec.depth - fruit.level)
                lo = fruit.index * frep - base
                assert 0 <= lo and lo + frep <= span
                assert not covered[lo : lo + frep].any()
                covered[lo : lo + frep] = True
            leaf_offsets = tree.leaf_atoms - base
            assert not covered[leaf_offsets].any()
            covered[leaf_offsets] = True
            assert covered.all()

    def test_fruits_unique_across_trees_and_bounded_multiplicity(self):
        spec = FiltrationSpec(3, 5, 1)
        F = random_martingale(spec, 8)
        forest = classify_atoms(F, 0.3)
        all_fruits = [f for tree in forest.trees for f in tree.fruits]
        assert len(all_fruits) == len(set(all_fruits))
        # each convex atom is the parent of at most m tree roots
        from collections import Counter

        parents = Counter()
        for tree in forest.trees:
            if tree.root.level > 0:
                parents[(tree.root.level - 1, tree.root.index // 3)] += 1
        assert all(c <= 3 for c in parents.values())


class TestSplit:
    def test_partition_exact(self):
        spec = FiltrationSpec(3, 4, 2)
        F = random_martingale(spec, 5)
        forest = classify_atoms(F, 0.15)
        F_co, F_fl = split_convex_flat(F, forest)
        assert np.array_equal(F_co.f0 + F_fl.f0, F.f0)
        for a, b, c in zip(F_co.diffs, F_fl.diffs, F.diffs):
            assert np.array_equal(a + b, c)
            assert np.all((a == 0) | (b == 0))

    def test_all_flat_gives_zero_convex_part(self):
        spec = FiltrationSpec(3, 3, 1)
        rng = np.random.default_rng(1)
        F = measure_to_martingale(TreeMeasure(spec, rng.random(27)))
        forest = classify_atoms(F, 0.1)
        F_co, _ = split_convex_flat(F, forest)
        assert all(np.all(d == 0) for d in F_co.diffs)


class TestStepwise:
    def test_zero_martingale(self):
        spec = FiltrationSpec(3, 3, 1)
        report = verify_stepwise_identity(Martingale.zero(spec))
        assert report.increment_sum == 0.0
        assert report.final_l1 == 0.0

    def test_telescoping_with_zero_start(self):
        spec = FiltrationSpec(3, 4, 2)
        for seed in range(10):
            F = random_martingale(spec, seed)
            F = Martingale(F.spec, np.zeros(2), F.diffs)
            report = verify_stepwise_identity(F)
            assert abs(report.identity_gap) < 1e-12 * max(1.0, report.final_l1)
            assert report.increment_sum == pytest.approx(report.final_l1, rel=1e-12)

    def test_atom_increments_nonnegative(self):
        spec = FiltrationSpec(3, 4, 2)
        W = SubspaceW.random(3, 2, 2, seed=0)
        for seed in range(10):
            F = random_w_martingale(W, spec, seed=seed)
            report = verify_stepwise_identity(F)
            assert report.min_atom_increment >= -1e-12


class TestConvexLemma:
    def test_no_convex_atoms(self):
        spec = FiltrationSpec(3, 3, 1)
        report = verify_convex_lemma(
            Martingale.zero(spec), classify_atoms(Martingale.zero(spec), 1.0)
        )
        assert report.besov_co == 0.0
        assert report.holds

    def test_constant_three_at_eps_one(self):
        spec = FiltrationSpec(3, 4, 2)
        for seed in range(20):
            F = random_martingale(spec, seed)
            forest = classify_atoms(F, 1.0)
            report = verify_convex_lemma(F, forest)
            assert report.constant == 3.0
            assert report.max_atom_ratio <= 1.0 + 1e-12
            assert report.holds

    def test_aggregate_bound_on_w_martingales(self):
        spec = FiltrationSpec(3, 5, 2)
        W = SubspaceW.random(3, 2, 2, seed=2)
        for seed in range(100):
            F = random_w_martingale(W, spec, seed=seed)
            forest = classify_atoms(F, 0.1)
            report = verify_convex_lemma(F, forest)
            assert report.holds
            assert report.besov_co <= report.telescoped_bound * (1 + 1e-12) + 1e-15


class TestFlatTreeGrowth:
    def test_zero_martingale_all_degenerate(self):
        spec = FiltrationSpec(3, 3, 1)
        F = Martingale.zero(spec)
        forest = classify_atoms(F, 0.1)
        report = verify_flat_tree_growth(F, forest, 2.0, kappa_at_inv_p=0.0, alpha_margin=0.05)
        assert report.max_ratio == 0.0

    def test_delta_martingale_rates(self):
        # For the delta construction with kappa(1/p) = ((p-1)/p) log m the
        # one-tree ratios decay like e^{-margin (n - n_0)}.
        p = 2.0
        spec = FiltrationSpec(3, 8, 1)
        G = delta_martingale(spec)
        # use the product part (positive measure) so everything is one flat tree
        G = oracles.multiplicative_martingale(spec, delta_vector(3))
        forest = classify_atoms(G, 0.05)
        assert len(forest.trees) == 1
        kappa = (p - 1) / p * np.log(3)
        margin = 0.1
        report = verify_flat_tree_growth(G, forest, p, kappa, margin)
        tree_rows = report.per_tree[0]["ratios"]
        ns = np.array([n for n, _ in tree_rows])
        ratios = np.array([r for _, r in tree_rows])
        # ||G_{n+1}||_p = m^{(n+1)(p-1)/p}, so the envelope ratio decays at
        # exactly e^{-margin n} up to the constant m^{(p-1)/p}
        expected = 3.0 ** ((p - 1) / p) * np.exp(-margin * ns)
        assert np.allclose(ratios, expected, rtol=1e-10)

    def test_single_step_bound_for_small_eps(self):
        # A flat atom's one-step growth is controlled by e^{kappa(1/p)} once
        # eps is small; with margin, the one-step ratio is at most ~1.
        p = 2.0
        spec = FiltrationSpec(3, 4, 2)
        W = SubspaceW.random(3, 2, 2, seed=9)
        kap = kappa_of(W, 1 / p, seed=0).value
        worst = 0.0
        for seed in range(20):
            F = random_w_martingale(W, spec, scale_profile=lambda n: 0.02, seed=seed)
            F = Martingale(F.spec, np.array([1.0, 0.0]), F.diffs)
            forest = classify_atoms(F, 0.01)
            report = verify_flat_tree_growth(F, forest, p, kap, alpha_margin=0.3)
            for entry in report.per_tree:
                for n, ratio in entry["ratios"]:
                    if n == entry["root"].level:  # one-step only
                        worst = max(worst, ratio)
        assert worst <= 1.5


class TestTreeSummation:
    def test_empty_forest_vacuous(self):
        spec = FiltrationSpec(3, 3, 1)
        F = Martingale.zero(spec)
        report = verify_tree_summation(F, classify_atoms(F, 0.1), 2.0)
        assert report.max_lorentz_ratio == 0.0

    def test_single_tree_nonnegative_martingale(self):
        spec = FiltrationSpec(3, 5, 1)
        ratios = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            mass = rng.random(spec.leaves)
            mass /= mass.sum()
            F = measure_to_martingale(TreeMeasure(spec, mass))
            forest = classify_atoms(F, 0.1)
            assert len(forest.trees) == 1
            report = verify_tree_summation(F, forest, 2.0)
            ratios.append(report.max_lorentz_ratio)
            assert report.max_stopping_ratio <= 1.0 + 1e-10
        assert np.isfinite(max(ratios))

    def test_degenerate_root_skipped(self):
        spec = FiltrationSpec(3, 3, 1)
        F = Martingale.zero(spec)
        forest = classify_atoms(F, 0.1)
        report = verify_tree_summation(F, forest, 2.0)
        assert report.per_tree[0]["root_mass"] == 0.0
        assert "lorentz_ratio" not in report.per_tree[0]

    def test_ft_reconstruction_consistency(self):
        # Summing F_T over all trees plus the convex blocks reproduces F - F_0.
        spec = FiltrationSpec(3, 4, 2)
        F = random_martingale(spec, 12)
        forest = classify_atoms(F, 0.2)
        report = verify_tree_summation(F, forest, 2.0)
        total_ft_l1 = sum(e["ft_l1"] for e in report.per_tree)
        F_co, F_fl = split_convex_flat(F, forest)
        F_fl = Martingale(spec, np.zeros(2), F_fl.diffs)  # drop the constant
        fl_l1 = lp_norm(*oracles.level(F_fl, 4), 1.0)
        # triangle inequality across disjoint-rooted trees can only lose mass
        assert total_ft_l1 >= fl_l1 - 1e-12


# ---------------------------------------------------------------- loop oracles
#
# Atom-by-atom and tree-by-tree reference implementations of the forest and
# its per-tree checks.  The package builds the same objects level by level;
# every summation happens in the same order, so results must agree bit for bit.


def classify_atoms_oracle(F, epsilon):
    spec = F.spec
    m = spec.m
    levels = evaluate_all(F)
    mags = [np.linalg.norm(v, axis=1) for v in levels]
    convex, increments, level_masses = [], [], []
    for n in range(spec.depth):
        weight = float(m) ** (-n)
        child_mean = mags[n + 1].reshape(-1, m).mean(axis=1)
        inc = weight * (child_mean - mags[n])
        base = weight * mags[n]
        convex.append((inc >= epsilon * base) & (child_mean > 0))
        increments.append(inc)
        level_masses.append(base)
    trees, tree_of = [], []
    for n in range(spec.depth):
        ids = np.full(spec.atoms_at(n), -1, dtype=np.int64)
        for i in np.flatnonzero(~convex[n]):
            parent_tree = tree_of[n - 1][i // m] if n > 0 else -1
            if parent_tree >= 0:
                ids[i] = parent_tree
                trees[parent_tree].members.setdefault(n, []).append(i)
            else:
                ids[i] = len(trees)
                trees.append(FlatTree(root=AtomId(n, int(i)), members={n: [i]}))
        tree_of.append(ids)
    for tree in trees:
        tree.members = {lvl: np.asarray(sorted(idx), dtype=np.int64) for lvl, idx in tree.members.items()}
    for n in range(1, spec.depth):
        for i in np.flatnonzero(convex[n]):
            t = tree_of[n - 1][i // m]
            if t >= 0:
                trees[t].fruits.append(AtomId(n, int(i)))
    leaf_indices = np.arange(spec.leaves)
    parent_tree = tree_of[spec.depth - 1][leaf_indices // m]
    for t, tree in enumerate(trees):
        tree.leaf_atoms = leaf_indices[parent_tree == t]
    forest = FlatForest(epsilon, convex, increments, level_masses)
    forest.trees = trees
    return forest


def tree_summation_oracle(F, forest, p):
    spec = F.spec
    m = spec.m
    levels = evaluate_all(F)
    total_l1 = float(np.linalg.norm(levels[-1], axis=1).mean())
    max_lorentz = max_stopping = 0.0
    per_tree = []
    for tree in forest.trees:
        n0 = tree.root.level
        root_mass = float(m) ** (-n0) * float(np.linalg.norm(levels[n0][tree.root.index]))
        lorentz_sum = 0.0
        span = m ** (spec.depth - n0)
        base = tree.root.index * span
        leaf_vals = np.zeros((span, spec.ell))
        for n, members in sorted(tree.members.items()):
            block = F.diffs[n][members].reshape(-1, spec.ell)
            mags = np.linalg.norm(block, axis=1)
            norm = lorentz_p1_from_distribution(mags, np.full(mags.shape, float(m) ** (-(n + 1))), p)
            lorentz_sum += float(m) ** (-(p - 1) / p * n) * norm
            rep = m ** (spec.depth - n - 1)
            child_idx = (members[:, None] * m + np.arange(m)[None, :]).ravel()
            for off, val in zip(child_idx * rep - base, block):
                leaf_vals[off : off + rep] += val
        ft_l1 = float(m) ** (-spec.depth) * float(np.linalg.norm(leaf_vals, axis=1).sum())
        entry = {"root": tree.root, "lorentz_sum": lorentz_sum, "root_mass": root_mass, "ft_l1": ft_l1}
        if root_mass > 0:
            entry["lorentz_ratio"] = lorentz_sum / root_mass
            max_lorentz = max(max_lorentz, entry["lorentz_ratio"])
        elif lorentz_sum > 1e-13:
            entry["lorentz_ratio"] = np.inf
            max_lorentz = np.inf
        if total_l1 > 0:
            max_stopping = max(max_stopping, ft_l1 / total_l1)
        per_tree.append(entry)
    return max_lorentz, max_stopping, per_tree


def flat_tree_growth_oracle(F, forest, p, alpha):
    m = F.spec.m
    levels = evaluate_all(F)
    max_ratio = 0.0
    per_tree = []
    for tree in forest.trees:
        n0 = tree.root.level
        root_norm = float(m) ** (-n0 / p) * np.linalg.norm(levels[n0][tree.root.index])
        rows = []
        if root_norm == 0.0:
            per_tree.append({"root": tree.root, "ratios": rows, "degenerate": True})
            continue
        for n, members in sorted(tree.members.items()):
            child_idx = (members[:, None] * m + np.arange(m)[None, :]).ravel()
            mags = np.linalg.norm(levels[n + 1][child_idx], axis=1)
            lhs = lp_norm_weighted(mags, np.full(mags.shape, float(m) ** (-(n + 1))), p)
            ratio = lhs / (np.exp(alpha * (n - n0)) * root_norm)
            rows.append((n, float(ratio)))
            max_ratio = max(max_ratio, float(ratio))
        per_tree.append({"root": tree.root, "ratios": rows, "degenerate": False})
    return max_ratio, per_tree


def per_tree_checks_oracle(F, nu, nu_levels, alpha, epsilon, p, c_frostman):
    spec = F.spec
    m = spec.m
    q = p / (p - 1.0)
    forest = classify_atoms_oracle(F, epsilon)
    levels = evaluate_all(F)
    tree_constants = []
    interp_max = 0.0
    for tree in forest.trees:
        n0 = tree.root.level
        root_value = float(np.linalg.norm(levels[n0][tree.root.index]))
        span = m ** (spec.depth - n0)
        base = tree.root.index * span
        leaf_vals = np.zeros((span, spec.ell))
        for n, members in sorted(tree.members.items()):
            rep = m ** (spec.depth - n - 1)
            block = (float(m) ** (-alpha * (n + 1))) * F.diffs[n][members].reshape(-1, spec.ell)
            child_idx = (members[:, None] * m + np.arange(m)[None, :]).ravel()
            for off, val in zip(child_idx * rep - base, block):
                leaf_vals[off : off + rep] += val
            idx_lo = tree.root.index * m ** (n - n0)
            dens = nu_levels[n][idx_lo : idx_lo + m ** (n - n0)] * float(m) ** n
            lhs = (float(m) ** (-n) * np.sum(dens**q)) ** (1.0 / q)
            rhs = float(m) ** ((p - 1) / p * (alpha - 1) * n0 + alpha * n / p)
            if rhs > 0:
                interp_max = max(interp_max, lhs / (c_frostman * rhs) if c_frostman > 0 else 0.0)
        l1_nu = float(np.sum(np.linalg.norm(leaf_vals, axis=1) * nu.leaf_mass[base : base + span]))
        denom = float(m) ** (-n0) * root_value
        if denom > 0:
            tree_constants.append(l1_nu / denom)
    return tree_constants, interp_max


def assert_forests_identical(ours, ref):
    assert ours.epsilon == ref.epsilon
    for a, b in zip(ours.convex + ours.increments + ours.level_masses, ref.convex + ref.increments + ref.level_masses):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert len(ours.trees) == len(ref.trees)
    for t, r in zip(ours.trees, ref.trees):
        assert t.root == r.root
        assert list(t.members) == list(r.members)
        for lvl in r.members:
            assert t.members[lvl].dtype == r.members[lvl].dtype
            assert np.array_equal(t.members[lvl], r.members[lvl])
        assert t.fruits == r.fruits
        assert t.leaf_atoms.dtype == r.leaf_atoms.dtype
        assert np.array_equal(t.leaf_atoms, r.leaf_atoms)


def assert_checks_identical(F, epsilon, p=2.0, alpha=0.9):
    """Every batched check equals its loop oracle exactly (==, no tolerance),
    on the forest ``classify_atoms`` builds and on the oracle's hand-built
    one, whose index is derived on first use.  The forest's trees and the
    reports' per-tree lists stay unbuilt until read, and then equal the
    oracle's eager ones.  Each check then runs again on the same forest after
    all the others and gives the same result, so no check writes into the
    forest's cached index."""
    forest = classify_atoms(F, epsilon)
    first_summation = verify_tree_summation(F, forest, p)
    first_growth = verify_flat_tree_growth(F, forest, p, kappa_at_inv_p=0.2, alpha_margin=0.1)
    # nothing is built per tree until it is read
    assert "trees" not in vars(forest)
    assert "per_tree" not in vars(first_summation) and "per_tree" not in vars(first_growth)
    ref = classify_atoms_oracle(F, epsilon)
    assert_forests_identical(forest, ref)
    columns = forest.columns
    assert columns.n_members.tolist() == [sum(v.size for v in t.members.values()) for t in ref.trees]
    assert columns.n_fruits.tolist() == [len(t.fruits) for t in ref.trees]
    assert columns.n_leaf_atoms.tolist() == [t.leaf_atoms.size for t in ref.trees]

    spec = F.spec
    nu = trace.capped_cascade_measure(FiltrationSpec(spec.m, spec.depth, 1), alpha, 1.0, seed=spec.depth)
    nu_levels = [nu.level_mass(n) for n in range(spec.depth + 1)]
    c_frostman = trace.frostman_constant(nu, alpha, 1.0)

    def summation(fo):
        r = verify_tree_summation(F, fo, p)
        return r.max_lorentz_ratio, r.max_stopping_ratio, r.per_tree

    def growth(fo):
        r = verify_flat_tree_growth(F, fo, p, kappa_at_inv_p=0.2, alpha_margin=0.1)
        return r.max_ratio, r.per_tree

    checks = [
        (summation, tree_summation_oracle(F, ref, p)),
        (growth, flat_tree_growth_oracle(F, ref, p, 0.2 + 0.1)),
        (
            lambda fo: verify_tree_trace(F, fo, nu, nu_levels, alpha, p, c_frostman),
            per_tree_checks_oracle(F, nu, nu_levels, alpha, epsilon, p, c_frostman),
        ),
    ]
    # the reports made before any tree was read build the oracle's lists
    summation_fields = (first_summation.max_lorentz_ratio, first_summation.max_stopping_ratio)
    assert (*summation_fields, first_summation.per_tree) == checks[0][1]
    assert (first_growth.max_ratio, first_growth.per_tree) == checks[1][1]
    for fo in (forest, ref, forest, ref):
        for check, expected in checks:
            assert check(fo) == expected


def growing_martingale(spec, seed, growth):
    """Random blocks scaled by growth^n with F_0 = 0: growth > 1 makes atoms
    convex, growth < 1 makes them flat."""
    F = random_martingale(spec, seed)
    diffs = [growth**n * d for n, d in enumerate(F.diffs)]
    return Martingale(spec, np.zeros(spec.ell), diffs, validate=False)


def sparse_martingale(spec, seed, keep):
    """Random martingale with blocks zeroed at random, so zero atoms, ties and
    degenerate tree roots occur."""
    rng = np.random.default_rng(seed + 1000)
    F = random_martingale(spec, seed)
    diffs = [d * (rng.random(d.shape[0]) < keep)[:, None, None] for d in F.diffs]
    f0 = F.f0 if rng.random() < 0.5 else np.zeros(spec.ell)
    return Martingale(spec, f0, diffs, validate=False)


def all_flat_martingale():
    """A measure martingale: nonnegative, so every atom is flat."""
    spec = FiltrationSpec(3, 6, 1)
    return measure_to_martingale(TreeMeasure(spec, np.random.default_rng(2).random(spec.leaves)))


def all_convex_martingale():
    """Blocks (2, -1, -1) scaled by 10^n: every atom is convex at eps 1."""
    spec = FiltrationSpec(3, 5, 1)
    diffs = [10.0**n * np.tile([2.0, -1.0, -1.0], (3**n, 1))[:, :, None] for n in range(spec.depth)]
    return Martingale(spec, np.zeros(1), diffs)


class TestLoopOracles:
    @pytest.mark.parametrize("m", [3, 4, 5])
    @pytest.mark.parametrize("depth", [1, 2, 4])
    @pytest.mark.parametrize("epsilon", [0.05, 0.3, 1.0])
    def test_random_martingales(self, m, depth, epsilon):
        for seed in range(2):
            assert_checks_identical(random_martingale(FiltrationSpec(m, depth, 2), seed), epsilon)

    @pytest.mark.parametrize("epsilon", [0.01, 0.1, 0.5])
    def test_deep_w_martingale(self, epsilon):
        spec = FiltrationSpec(3, 7, 2)
        W = SubspaceW.random(3, 2, 2, seed=4)
        assert_checks_identical(random_w_martingale(W, spec, seed=5), epsilon)

    def test_wide_values(self):
        # ell >= 8 takes numpy's pairwise path inside each row norm
        assert_checks_identical(random_martingale(FiltrationSpec(3, 4, 9), 6), 0.2)

    @pytest.mark.parametrize("m", [3, 4])
    def test_zero_martingale(self, m):
        spec = FiltrationSpec(m, 4, 2)
        assert_checks_identical(Martingale.zero(spec), 0.1)
        assert len(classify_atoms(Martingale.zero(spec), 0.1).trees) == 1

    def test_all_flat(self):
        F = all_flat_martingale()
        assert classify_atoms(F, 0.05).n_convex() == 0
        assert_checks_identical(F, 0.05)

    def test_all_convex(self):
        F = all_convex_martingale()
        spec = F.spec
        forest = classify_atoms(F, 1.0)
        assert forest.n_convex() == sum(spec.atoms_at(n) for n in range(spec.depth))
        assert forest.trees == []
        assert_checks_identical(F, 1.0)

    @pytest.mark.parametrize("growth", [0.3, 1.0, 3.0])
    def test_level_scaled_martingales(self, growth):
        for m in (3, 4):
            assert_checks_identical(growing_martingale(FiltrationSpec(m, 5, 2), 7, growth), 0.2)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(3, 4),
        depth=st.integers(1, 5),
        ell=st.integers(1, 3),
        seed=st.integers(0, 2**31 - 1),
        keep=st.floats(0.2, 1.0),
        epsilon=st.floats(0.01, 3.0),
        p=st.sampled_from([1.5, 2.0, 3.0]),
    )
    def test_random_sparse_martingales(self, m, depth, ell, seed, keep, epsilon, p):
        F = sparse_martingale(FiltrationSpec(m, depth, ell), seed, keep)
        assert_checks_identical(F, epsilon, p=p, alpha=0.8)


# The shapes of TestLoopOracles, as lists of (martingale, epsilon).
LAYOUT_CASES = {
    "random": lambda: [
        (random_martingale(FiltrationSpec(m, depth, 2), seed), epsilon)
        for m in (3, 4, 5) for depth in (1, 2, 4) for seed in range(2) for epsilon in (0.05, 0.3, 1.0)
    ],
    "deep-w": lambda: [
        (random_w_martingale(SubspaceW.random(3, 2, 2, seed=4), FiltrationSpec(3, 7, 2), seed=5), epsilon)
        for epsilon in (0.01, 0.1, 0.5)
    ],
    "wide-values": lambda: [(random_martingale(FiltrationSpec(3, 4, 9), 6), 0.2)],
    "zero": lambda: [(Martingale.zero(FiltrationSpec(m, 4, 2)), 0.1) for m in (3, 4)],
    "all-flat": lambda: [(all_flat_martingale(), 0.05)],
    "all-convex": lambda: [(all_convex_martingale(), 1.0)],
    "level-scaled": lambda: [
        (growing_martingale(FiltrationSpec(m, 5, 2), 7, growth), 0.2) for growth in (0.3, 1.0, 3.0) for m in (3, 4)
    ],
    "sparse": lambda: [
        (sparse_martingale(FiltrationSpec(m, 5, ell), seed, 0.5), 0.3)
        for m in (3, 4) for ell in (1, 3) for seed in range(3)
    ],
}


def assert_layout_matches_oracle(F, epsilon) -> int:
    """Each block ``tree_leaf_values`` yields is the full-array oracle's
    array on those trees' root cylinders, bit for bit, with and without
    scales.  Returns the number of blocks."""
    spec = F.spec
    forest = classify_atoms(F, epsilon)
    root_index = forest.index.root_index
    scales = [float(spec.m) ** (-0.8 * (n + 1)) for n in range(spec.depth)]
    blocks = 0
    for sc in (None, scales):
        pairs = zip(tree_leaf_values(F, forest, sc), oracles.tree_leaf_values(F, forest, sc), strict=True)
        for (level, ids, values), (ref_level, ref_ids, full) in pairs:
            assert level == ref_level and np.array_equal(ids, ref_ids)
            span = spec.m ** (spec.depth - level)
            expected = full.reshape(-1, span, spec.ell)[root_index[ids]].reshape(-1, spec.ell)
            assert values.shape == expected.shape == (ids.size * span, spec.ell)
            assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
            blocks += 1
    assert blocks == 2 * np.unique(forest.index.root_level).size
    return blocks


class TestBatchedHelpers:
    @pytest.mark.parametrize("case", list(LAYOUT_CASES))
    def test_tree_leaf_values_on_root_cylinders_match_full_array(self, case):
        blocks = [assert_layout_matches_oracle(F, epsilon) for F, epsilon in LAYOUT_CASES[case]()]
        assert (sum(blocks) == 0) == (case == "all-convex")

    def test_tree_leaf_values_sum_to_flat_part(self):
        # Summing F_T over every tree gives F_fl - F_0 on the leaves.
        spec = FiltrationSpec(3, 5, 2)
        F = random_martingale(spec, 21)
        forest = classify_atoms(F, 0.2)
        root_index = forest.index.root_index
        total = np.zeros((spec.leaves, spec.ell))
        for level, ids, values in tree_leaf_values(F, forest):
            # each block back at its trees' root cylinders
            span = spec.m ** (spec.depth - level)
            total.reshape(-1, span, spec.ell)[root_index[ids]] += values.reshape(-1, span, spec.ell)
        _, F_fl = split_convex_flat(F, forest)
        expected = evaluate(F_fl, spec.depth) - F.f0
        assert np.allclose(total, expected, atol=1e-12)

    def test_atom_increments_are_the_forest_sums(self):
        spec = FiltrationSpec(4, 4, 2)
        F = random_martingale(spec, 22)
        increments, level_masses, _ = atom_increments(F)
        forest = classify_atoms(F, 0.3)
        assert all(np.array_equal(a, b) for a, b in zip(increments, forest.increments))
        assert all(np.array_equal(a, b) for a, b in zip(level_masses, forest.level_masses))

    def test_stepwise_identity_matches_oracle(self):
        spec = FiltrationSpec(3, 5, 2)
        for seed in range(3):
            F = random_martingale(spec, seed + 30)
            ref = classify_atoms_oracle(F, 1.0)
            increment_sum = float(sum(inc.sum() for inc in ref.increments))
            final_l1 = float(np.linalg.norm(evaluate_all(F)[-1], axis=1).mean())
            report = verify_stepwise_identity(F)
            assert report.increment_sum == increment_sum
            assert report.final_l1 == final_l1
            assert report.min_atom_increment == float(min(inc.min() for inc in ref.increments))

    def test_index_built_once_read_only_and_no_field(self):
        F = random_martingale(FiltrationSpec(3, 4, 2), 23)
        forest = classify_atoms(F, 0.2)
        index = forest.index
        verify_tree_summation(F, forest, 2.0)
        verify_flat_tree_growth(F, forest, 2.0, kappa_at_inv_p=0.2, alpha_margin=0.1)
        assert forest.index is index
        arrays = [*index.tree_of, *index.ids, *index.counts, *index.members, index.root_level, index.root_index]
        assert not any(a.flags.writeable for a in arrays)
        assert "index" not in {f.name for f in dataclasses.fields(forest)}

    def test_fields_built_on_read_keep_their_names_and_places(self):
        # the benchmark's result digests walk these fields in this order
        def names(cls):
            return [f.name for f in dataclasses.fields(cls)]

        assert names(FlatForest) == ["epsilon", "convex", "trees", "increments", "level_masses"]
        assert names(TreeGrowthReport) == ["alpha", "max_ratio", "per_tree"]
        assert names(TreeSummationReport) == ["p", "max_lorentz_ratio", "max_stopping_ratio", "per_tree"]

    def test_checks_build_no_tree_objects(self, monkeypatch):
        spec = FiltrationSpec(3, 6, 2)
        F = random_w_martingale(SubspaceW.random(3, 2, 2, seed=4), spec, seed=8)

        def no_objects(*args, **kwargs):
            raise AssertionError("a per-tree object was built")

        monkeypatch.setattr(decomp, "FlatTree", no_objects)
        monkeypatch.setattr(decomp, "AtomId", no_objects)
        forest = classify_atoms(F, 0.1)
        verify_tree_summation(F, forest, 2.0)
        verify_flat_tree_growth(F, forest, 2.0, kappa_at_inv_p=0.2, alpha_margin=0.1)
        nu = trace.capped_cascade_measure(FiltrationSpec(3, spec.depth, 1), 0.9, 1.0, seed=1)
        verify_tree_trace(F, forest, nu, [nu.level_mass(n) for n in range(spec.depth + 1)], 0.9, 2.0, 1.0)
        monkeypatch.undo()
        assert len(forest.index.root_level) > 1
        assert_forests_identical(forest, classify_atoms_oracle(F, 0.1))

    def test_field_built_on_first_read_is_kept(self):
        F = random_martingale(FiltrationSpec(3, 4, 2), 24)
        forest = classify_atoms(F, 0.2)
        copied = pickle.loads(pickle.dumps(forest))
        trees = forest.trees
        assert forest.trees is trees and "trees" in vars(forest)
        assert_forests_identical(copied, forest)
        report = verify_tree_summation(F, forest, 2.0)
        assert report.per_tree is report.per_tree
        assert report == verify_tree_summation(F, forest, 2.0)
        with pytest.raises(AttributeError, match="no attribute 'tree'"):
            forest.tree
        by_hand = FlatForest(0.2, forest.convex, forest.increments, forest.level_masses)
        with pytest.raises(AttributeError, match="no attribute 'trees'"):
            by_hand.trees

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_non_finite_or_nonpositive_epsilon_rejected(self, epsilon):
        F = random_martingale(FiltrationSpec(3, 2, 1), 0)
        with pytest.raises(ValueError, match="epsilon"):
            classify_atoms(F, epsilon)


def same_bits(got, expected) -> bool:
    got, expected = np.ascontiguousarray(got), np.ascontiguousarray(expected, dtype=float)
    return got.shape == expected.shape and np.array_equal(got.view(np.uint64), expected.view(np.uint64))


FRESH_KEYS = {"spec", "f0", "diffs"}


class TestKeptLevelData:
    """``Martingale.norms``, ``diff_norms`` and ``increments``: the level
    data every checker reads, bit for bit the uncached sweep, read-only,
    kept on first read."""

    @pytest.mark.parametrize("case", LAYOUT_CASES)
    def test_parts_match_the_uncached_sweep(self, case):
        for F, _ in LAYOUT_CASES[case]():
            expected = oracles.level_data(F)
            for name in ("norms", "diff_norms"):
                got = getattr(F, name)
                assert len(got) == len(expected[name])
                assert all(same_bits(a, b) for a, b in zip(got, expected[name])), name
            for got, ref in zip(F.increments, expected["increments"], strict=True):
                assert len(got) == F.spec.depth and all(same_bits(a, b) for a, b in zip(got, ref))

    @pytest.mark.parametrize("case", ["random", "wide-values", "sparse"])
    def test_evaluate_and_evaluate_at_read_the_same_bits(self, case):
        rng = np.random.default_rng(3)
        for F, _ in LAYOUT_CASES[case]():
            expected = oracles.evaluate_all(F)
            assert all(same_bits(a, b) for a, b in zip(filtration.evaluate_all(F), expected, strict=True))
            for n, ref in enumerate(expected):
                assert same_bits(evaluate(F, n), ref)
                atoms = rng.integers(0, ref.shape[0], 7)
                assert same_bits(filtration.evaluate_at(F, n, atoms), ref[atoms])

    def test_kept_arrays_reject_writes(self):
        F = random_martingale(FiltrationSpec(3, 3, 2), 1)
        norms = F.norms
        parts = [*norms, *F.diff_norms, *(a for part in F.increments for a in part), *atom_increments(F)[0]]
        for a in parts:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
        assert F.norms is norms

    def test_new_martingales_keep_nothing(self):
        F = random_martingale(FiltrationSpec(3, 4, 2), 2)
        assert set(vars(F)) == FRESH_KEYS
        forest = classify_atoms(F, 0.2)
        assert "increments" in vars(F)
        for G in (F.copy(), F.truncated(2), F.scaled(np.full(4, 2.0)), F + F, *split_convex_flat(F, forest)):
            assert set(vars(G)) == FRESH_KEYS
        # the derived martingale's own sweep: a copy shares nothing kept on F
        G = F.copy()
        G.diffs[0][0] = 0.0
        assert not same_bits(G.norms[1], F.norms[1])

    def test_evaluate_keeps_nothing(self):
        F = random_martingale(FiltrationSpec(3, 4, 2), 3)
        for n in range(F.spec.depth + 1):
            evaluate(F, n)
            filtration.evaluate_at(F, n, np.arange(F.spec.m**n))
        filtration.evaluate_all(F)
        assert set(vars(F)) == FRESH_KEYS

    def test_one_sweep_per_martingale(self, monkeypatch):
        spec = FiltrationSpec(3, 6, 2)
        F = random_w_martingale(SubspaceW.random(3, 2, 2, seed=4), spec, seed=8)
        sweeps = []
        sweep = filtration._sweep

        def counted(spec, f0, diffs, n):
            sweeps.append(id(diffs))
            return sweep(spec, f0, diffs, n)

        monkeypatch.setattr(filtration, "_sweep", counted)
        nu = trace.capped_cascade_measure(FiltrationSpec(3, spec.depth, 1), 0.9, 1.0, seed=1)
        nu_levels = [nu.level_mass(n) for n in range(spec.depth + 1)]
        _, F_fl = split_convex_flat(F, classify_atoms(F, 0.1))
        for G in (F, F_fl):
            forest = classify_atoms(G, 0.1)
            verify_stepwise_identity(G)
            verify_convex_lemma(G, forest)
            verify_tree_summation(G, forest, 2.0)
            verify_flat_tree_growth(G, forest, 2.0, kappa_at_inv_p=0.2, alpha_margin=0.1)
            h1_norm(G)
            verify_tree_trace(G, forest, nu, nu_levels, 0.9, 2.0, 1.0)
        assert sweeps == [id(F.diffs), id(F_fl.diffs)]
