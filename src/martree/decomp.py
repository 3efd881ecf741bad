"""Epsilon-convex/flat atom decomposition and the flat forest.

An atom omega at level n is eps-convex for F when

    E(|F_{n+1}| - |F_n|) chi_omega >= eps * E|F_n| chi_omega,

and eps-flat otherwise.  Atoms where F vanishes together with its children
(both sides zero) are labeled flat: the letter of the definition would make
them convex through 0 >= 0, but they carry no growth and would degenerate the
forest of the zero martingale.  Flat atoms connected by parent/child edges
form trees; each tree root's parent (if any) is convex.  Fruits of a tree are
the convex atoms hanging off it, and its leaf cylinders are the bottom-level
atoms below a flat parent, so every tree root is partitioned by its fruits
and leaves.

``atom_increments`` gives the per-atom growth and mass that both the labels
and the stepwise identity read.  The forest is built level by level, in time
linear in the number of tree nodes: tree ids propagate from parents to flat
children, and members, fruits and leaves are grouped by tree with one stable
sort per level.  The per-tree checks, trace controls included, run batched
over all trees, with each tree's sums taken in the same order as a
tree-by-tree loop would take them, so the reports are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .filtration import AtomId, Martingale, evaluate, evaluate_all
from .norms import lorentz_p1_segments, lp_norm_segments
from .spacew import _row_norms


@dataclass
class FlatTree:
    root: AtomId
    members: dict[int, np.ndarray]        # level -> sorted atom indices
    fruits: list[AtomId] = field(default_factory=list)
    leaf_atoms: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))


@dataclass
class FlatForest:
    epsilon: float
    convex: list[np.ndarray]              # per level n < N, boolean mask
    trees: list[FlatTree]
    increments: list[np.ndarray]          # E(|F_{n+1}|-|F_n|) chi_omega per atom
    level_masses: list[np.ndarray]        # E|F_n| chi_omega per atom

    def n_convex(self) -> int:
        return int(sum(mask.sum() for mask in self.convex))


def atom_increments(
    F: Martingale,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Per level n < N and atom omega: the growth E(|F_{n+1}| - |F_n|) chi_omega,
    the mass E|F_n| chi_omega, and the mean of |F_{n+1}| over omega's children."""
    m = F.spec.m
    mags = [np.linalg.norm(v, axis=1) for v in evaluate_all(F)]
    increments, level_masses, child_means = [], [], []
    for n in range(F.spec.depth):
        weight = float(m) ** (-n)
        child_mean = mags[n + 1].reshape(-1, m).mean(axis=1)
        increments.append(weight * (child_mean - mags[n]))
        level_masses.append(weight * mags[n])
        child_means.append(child_mean)
    return increments, level_masses, child_means


def _children(atoms: np.ndarray, m: int) -> np.ndarray:
    return (atoms[:, None] * m + np.arange(m)).ravel()


def _group(keys: np.ndarray, values: np.ndarray):
    """Yield (key, values with that key) in ascending key order; each group
    keeps the order it had in ``values``."""
    if keys.size == 0:
        return []
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    bounds = np.flatnonzero(np.diff(keys)) + 1
    return zip(keys[np.append(0, bounds)].tolist(), np.split(values, bounds))


def classify_atoms(F: Martingale, epsilon: float) -> FlatForest:
    """Label every internal atom convex or flat and assemble the flat forest.

    The forest is built level by level: a flat atom takes its parent's tree
    id, the other flat atoms root new trees numbered in index order, and each
    level's members, fruits and leaves are grouped by tree with one stable
    sort, so the work is linear in the number of atoms.
    """
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    spec = F.spec
    m = spec.m
    increments, level_masses, child_means = atom_increments(F)
    convex = [
        (inc >= epsilon * base) & (child_mean > 0)
        for inc, base, child_mean in zip(increments, level_masses, child_means)
    ]

    trees: list[FlatTree] = []
    tree_of: list[np.ndarray] = []
    for n in range(spec.depth):
        flat = ~convex[n]
        ids = np.full(spec.atoms_at(n), -1, dtype=np.int64)
        if n > 0:
            ids[flat] = np.repeat(tree_of[n - 1], m)[flat]
        new_roots = np.flatnonzero(flat & (ids < 0))
        ids[new_roots] = len(trees) + np.arange(new_roots.size)
        trees.extend(FlatTree(root=AtomId(n, i), members={}) for i in new_roots.tolist())
        flat_idx = np.flatnonzero(flat)
        for t, members in _group(ids[flat_idx], flat_idx):
            trees[t].members[n] = members
        tree_of.append(ids)

    # Fruits: convex atoms whose parent is flat.  Leaves: bottom atoms whose
    # parent is flat.
    for n in range(1, spec.depth):
        conv_idx = np.flatnonzero(convex[n])
        parent = tree_of[n - 1][conv_idx // m]
        for t, fruits in _group(parent[parent >= 0], conv_idx[parent >= 0]):
            trees[t].fruits.extend(AtomId(n, i) for i in fruits.tolist())
    bottom = tree_of[spec.depth - 1]
    bottom_idx = np.flatnonzero(bottom >= 0)
    for t, atoms in _group(bottom[bottom_idx], bottom_idx):
        trees[t].leaf_atoms = _children(atoms, m)

    return FlatForest(
        epsilon=epsilon,
        convex=convex,
        trees=trees,
        increments=increments,
        level_masses=level_masses,
    )


def split_convex_flat(F: Martingale, forest: FlatForest) -> tuple[Martingale, Martingale]:
    """F = F_co + F_fl blockwise; the flat part carries F_0 (constants are flat)."""
    if len(forest.convex) != F.spec.depth:
        raise ValueError("forest does not match the martingale's depth")
    co_diffs, fl_diffs = [], []
    for n in range(F.spec.depth):
        mask = forest.convex[n][:, None, None]
        co_diffs.append(np.where(mask, F.diffs[n], 0.0))
        fl_diffs.append(np.where(mask, 0.0, F.diffs[n]))
    F_co = Martingale(F.spec, np.zeros(F.spec.ell), co_diffs, validate=False)
    F_fl = Martingale(F.spec, F.f0.copy(), fl_diffs, validate=False)
    return F_co, F_fl


@dataclass
class StepwiseReport:
    increment_sum: float        # sum of E(|F_{n+1}| - |F_n|)
    final_l1: float             # E|F_N|
    initial_l1: float           # E|F_0|
    min_atom_increment: float
    identity_gap: float         # increment_sum - (final_l1 - initial_l1)


def verify_stepwise_identity(F: Martingale) -> StepwiseReport:
    """Telescoping of the stepwise growth, with the F_0 convention exposed.

    The literal statement sum_n E(|F_{n+1}|-|F_n|) = ||F||_{L_1} only holds
    when F_0 = 0; the report carries E|F_0| so either convention can be read
    off.  Every atom increment is nonnegative because blocks sum to zero.
    """
    increments = atom_increments(F)[0]
    increment_sum = float(sum(inc.sum() for inc in increments))
    final_l1 = float(np.linalg.norm(evaluate(F, F.spec.depth), axis=1).mean())
    initial_l1 = float(np.linalg.norm(F.f0))
    min_atom = float(min(inc.min() for inc in increments))
    return StepwiseReport(
        increment_sum=increment_sum,
        final_l1=final_l1,
        initial_l1=initial_l1,
        min_atom_increment=min_atom,
        identity_gap=increment_sum - (final_l1 - initial_l1),
    )


@dataclass
class ConvexLemmaReport:
    constant: float             # (eps + 2)/eps
    max_atom_ratio: float       # worst E|f_{n+1}|chi / (constant * increment)
    besov_co: float             # ||F_co||_{B_1^{0,1}}
    telescoped_bound: float     # constant * (E|F_N| - E|F_0|)
    holds: bool


def verify_convex_lemma(F: Martingale, forest: FlatForest) -> ConvexLemmaReport:
    """Per-atom bound E|f_{n+1}| chi <= ((eps+2)/eps) E(|F_{n+1}|-|F_n|) chi on
    convex atoms, and its Besov aggregate."""
    spec = F.spec
    m = spec.m
    constant = (forest.epsilon + 2.0) / forest.epsilon
    max_ratio = 0.0
    besov_co = 0.0
    for n in range(spec.depth):
        diff_mags = np.linalg.norm(F.diffs[n], axis=2)  # (atoms, m)
        atom_f_l1 = float(m) ** (-(n + 1)) * diff_mags.sum(axis=1)
        mask = forest.convex[n]
        besov_co += float(atom_f_l1[mask].sum())
        bound = constant * forest.increments[n][mask]
        vals = atom_f_l1[mask]
        positive = bound > 0
        if np.any(positive):
            max_ratio = max(max_ratio, float(np.max(vals[positive] / bound[positive])))
        if np.any(vals[~positive] > 1e-13):
            # convex atoms always have positive increment; flag if violated
            max_ratio = np.inf
    report = verify_stepwise_identity(F)
    telescoped = constant * (report.final_l1 - report.initial_l1)
    return ConvexLemmaReport(
        constant=constant,
        max_atom_ratio=max_ratio,
        besov_co=besov_co,
        telescoped_bound=telescoped,
        holds=bool(besov_co <= telescoped * (1 + 1e-12) + 1e-15 and max_ratio <= 1 + 1e-12),
    )


def _members_by_level(forest: FlatForest, depth: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per level n < N: the trees with members at n (ascending ids), their
    member counts, and the members themselves concatenated in that order."""
    ids: list[list[int]] = [[] for _ in range(depth)]
    parts: list[list[np.ndarray]] = [[] for _ in range(depth)]
    for t, tree in enumerate(forest.trees):
        for n, members in tree.members.items():
            ids[n].append(t)
            parts[n].append(members)
    return [
        (
            np.array(ids[n], dtype=np.int64),
            np.array([len(p) for p in parts[n]], dtype=np.int64),
            np.concatenate(parts[n]) if parts[n] else np.zeros(0, dtype=np.int64),
        )
        for n in range(depth)
    ]


def _tree_roots(forest: FlatForest) -> tuple[np.ndarray, np.ndarray]:
    """Level and index of every tree root, in tree order."""
    level = np.array([t.root.level for t in forest.trees], dtype=np.int64)
    index = np.array([t.root.index for t in forest.trees], dtype=np.int64)
    return level, index


def _root_masses(F: Martingale, levels: list[np.ndarray], forest: FlatForest, p: float = 1.0) -> np.ndarray:
    """m^{-n_0/p} |F_{n_0}(omega_0)| at each tree root omega_0, in tree order.
    The roots of one level share a batched norm, bit for bit each vector's."""
    root_level, root_index = _tree_roots(forest)
    norms = np.zeros(root_level.size)
    for n in np.unique(root_level).tolist():
        here = root_level == n
        norms[here] = _row_norms(levels[n][root_index[here]])
    return np.array([float(F.spec.m) ** (-n / p) for n in range(F.spec.depth + 1)])[root_level] * norms


def tree_leaf_values(F: Martingale, forest: FlatForest, scales=None):
    """F_T = sum_n scales[n] f_{n+1} chi_{T cap A_n} on the leaves, where A_n
    is the set of level-n atoms, for all trees at once, one root level at a
    time.

    Yields ``(level, ids, values)``: the ids of the trees rooted at ``level``
    (ascending) and an (m^N, ell) array that holds F_T on the cylinder of each
    such tree's root and zero elsewhere.  Trees rooted at one level have
    disjoint cylinders, so they share the array; the same array is refilled
    for the next level, so read it before advancing.  Each leaf receives its
    terms in ascending level order.  ``scales`` defaults to all ones.
    """
    spec = F.spec
    m, ell = spec.m, spec.ell
    by_level = _members_by_level(forest, spec.depth)
    root_level, _ = _tree_roots(forest)
    values = np.empty((spec.leaves, ell))
    for level in np.unique(root_level).tolist():
        rooted_here = root_level == level
        values.fill(0.0)
        for n in range(level, spec.depth):
            ids, counts, atoms = by_level[n]
            atoms = atoms[np.repeat(rooted_here[ids], counts)]
            block = F.diffs[n][atoms].reshape(-1, 1, ell)
            if scales is not None:
                block = scales[n] * block
            rep = m ** (spec.depth - n - 1)
            values.reshape(-1, rep, ell)[_children(atoms, m)] += block
        yield level, np.flatnonzero(rooted_here), values


def _tree_leaf_sums(F: Martingale, forest: FlatForest, scales=None, weight=None) -> np.ndarray:
    """Per tree, the sum over its root cylinder's leaves of |F_T| (times the
    leaf's ``weight``, if given); F_T and ``scales`` as in ``tree_leaf_values``."""
    spec = F.spec
    _, root_index = _tree_roots(forest)
    sums = np.zeros(len(forest.trees))
    for level, ids, values in tree_leaf_values(F, forest, scales):
        leaf = np.linalg.norm(values, axis=1)
        if weight is not None:
            leaf = leaf * weight
        sums[ids] = leaf.reshape(-1, spec.m ** (spec.depth - level))[root_index[ids]].sum(axis=1)
    return sums


@dataclass
class TreeGrowthReport:
    alpha: float
    max_ratio: float
    per_tree: list[dict]


def verify_flat_tree_growth(
    F: Martingale, forest: FlatForest, p: float, kappa_at_inv_p: float, alpha_margin: float
) -> TreeGrowthReport:
    """Ratios of ||sum_{omega in T cap AF_n} F_{n+1} chi|| _{L_p} against the
    e^{alpha(n - n_0)} envelope from the tree root, alpha = kappa(1/p) + margin."""
    spec = F.spec
    m = spec.m
    alpha = kappa_at_inv_p + alpha_margin
    levels = evaluate_all(F)
    root_level, _ = _tree_roots(forest)
    root_norm = _root_masses(F, levels, forest, p)
    envelope = np.array([np.exp(alpha * k) for k in range(spec.depth + 1)])
    rows: list[list] = [[] for _ in forest.trees]
    max_ratio = 0.0
    for n, (ids, counts, atoms) in enumerate(_members_by_level(forest, spec.depth)):
        live = root_norm[ids] != 0.0
        ids, counts, atoms = ids[live], counts[live], atoms[np.repeat(live, counts)]
        if ids.size == 0:
            continue
        mags = np.linalg.norm(levels[n + 1][_children(atoms, m)], axis=1)
        lhs = lp_norm_segments(mags, counts * m, float(m) ** (-(n + 1)), p)
        ratios = lhs / (envelope[n - root_level[ids]] * root_norm[ids])
        for t, ratio in zip(ids.tolist(), ratios.tolist()):
            rows[t].append((n, ratio))
        max_ratio = max(max_ratio, *ratios.tolist())
    per_tree = [
        {"root": tree.root, "ratios": tree_rows, "degenerate": bool(norm == 0.0)}
        for tree, tree_rows, norm in zip(forest.trees, rows, root_norm.tolist())
    ]
    return TreeGrowthReport(alpha=alpha, max_ratio=max_ratio, per_tree=per_tree)


@dataclass
class TreeSummationReport:
    p: float
    max_lorentz_ratio: float
    max_stopping_ratio: float
    per_tree: list[dict]


def verify_tree_summation(F: Martingale, forest: FlatForest, p: float) -> TreeSummationReport:
    """Per tree: the weighted Lorentz sum against E|F_{n_0}| chi_{omega_0}, and
    the stopping-time control ||F_T||_{L_1} <= C ||F||_{L_1}."""
    spec = F.spec
    m = spec.m
    levels = evaluate_all(F)
    total_l1 = float(np.linalg.norm(levels[-1], axis=1).mean())
    root_mass = _root_masses(F, levels, forest)

    # Each tree's Lorentz sum accumulates in ascending level order.
    lorentz_sum = np.zeros(len(forest.trees))
    for n, (ids, counts, atoms) in enumerate(_members_by_level(forest, spec.depth)):
        if ids.size == 0:
            continue
        mags = np.linalg.norm(F.diffs[n][atoms].reshape(-1, spec.ell), axis=1)
        norm = lorentz_p1_segments(mags, counts * m, float(m) ** (-(n + 1)), p)
        lorentz_sum[ids] += float(m) ** (-(p - 1) / p * n) * norm

    # ||F_T||_{L_1}: F_T is supported on the root cylinder.
    ft_l1 = float(m) ** (-spec.depth) * _tree_leaf_sums(F, forest)

    max_lorentz = 0.0
    max_stopping = 0.0
    per_tree = []
    for tree, lsum, mass, ft in zip(forest.trees, lorentz_sum.tolist(), root_mass.tolist(), ft_l1.tolist()):
        entry = {"root": tree.root, "lorentz_sum": lsum, "root_mass": mass, "ft_l1": ft}
        if mass > 0:
            entry["lorentz_ratio"] = lsum / mass
            max_lorentz = max(max_lorentz, entry["lorentz_ratio"])
        elif lsum > 1e-13:
            entry["lorentz_ratio"] = np.inf
            max_lorentz = np.inf
        if total_l1 > 0:
            max_stopping = max(max_stopping, ft / total_l1)
        per_tree.append(entry)
    return TreeSummationReport(
        p=p,
        max_lorentz_ratio=max_lorentz,
        max_stopping_ratio=max_stopping,
        per_tree=per_tree,
    )


def verify_tree_trace(F: Martingale, forest: FlatForest, nu, nu_levels, alpha, p, c_frostman):
    """Per flat tree: the empirical C of ||I_alpha[F_T]||_{L_1(nu)} <= C m^{-n_0}
    |F_{n_0}(omega_0)|, and the worst ratio of the interpolatory estimate (nu's
    density on the root cylinder, exponent p) to the Frostman constant."""
    spec = F.spec
    m = spec.m
    q = p / (p - 1.0)
    root_level, root_index = _tree_roots(forest)
    scales = [float(m) ** (-alpha * (n + 1)) for n in range(spec.depth)]
    l1_nu = _tree_leaf_sums(F, forest, scales, nu.leaf_mass)
    denom = _root_masses(F, evaluate_all(F), forest)
    tree_constants = (l1_nu[denom > 0] / denom[denom > 0]).tolist()

    # Interpolatory estimate of the restricted measure martingale: the nu
    # density on the root cylinder at every level where the tree has members.
    interp_max = 0.0
    for n, (tree_ids, _, _) in enumerate(_members_by_level(forest, spec.depth)):
        for n0 in np.unique(root_level[tree_ids]).tolist():
            roots = root_index[tree_ids[root_level[tree_ids] == n0]]
            dens = nu_levels[n].reshape(m**n0, m ** (n - n0))[roots] * float(m) ** n
            sums = float(m) ** (-n) * (dens**q).sum(axis=1)
            rhs = float(m) ** ((p - 1) / p * (alpha - 1) * n0 + alpha * n / p)
            if rhs > 0:
                for s in sums.tolist():
                    lhs = s ** (1.0 / q)
                    interp_max = max(interp_max, lhs / (c_frostman * rhs) if c_frostman > 0 else 0.0)
    return tree_constants, interp_max
