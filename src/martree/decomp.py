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

Every checker reads the martingale's level data from the martingale itself
(see ``martree.filtration``): the magnitudes |F_n| and |f_{n+1}|
(``Martingale.norms``, ``Martingale.diff_norms``) and the per-atom growth and
mass that both the labels and the stepwise identity read
(``Martingale.increments``).  The first checker to read a part computes it,
read-only, and the others share it, so one martingale is swept once however
many checks run on it; its ``diffs`` must not be written after that.  A tree
root's F_n is a path sum (``filtration.evaluate_at``), so no level of values
is kept.  The forest's layout lives in one columnar
index, ``FlatForest.index``, derived once from the convex masks in time
linear in the number of atoms: tree ids propagate from parents to flat
children, new roots are numbered in index order, and each level's members
are grouped by tree with one stable sort.  What each tree holds beyond its
members (its fruits, its leaf atoms, its member, fruit and leaf counts)
stays in arrays next to the index, ``FlatForest.columns``.  The per-tree
checks, trace controls included, read the index directly and run batched
over all trees, with each tree's sums taken in the same order as a
tree-by-tree loop would take them, so the reports are reproducible bit for
bit.  The two sums over F_T, ||F_T||_{L_1} and ||I_alpha[F_T]||_{L_1(nu)},
hold F_T only on the leaves of the root cylinders, one root level at a time,
built top down from the members: the work is linear in the number of leaves
under the roots, which counts each leaf at most once per root level, never
trees x leaves.

Nothing is built per tree unless it is read.  ``FlatForest.trees`` and the
``per_tree`` lists of ``TreeGrowthReport`` and ``TreeSummationReport`` are
dataclass fields without a value until their first read, which builds them
from the arrays their maker left (the same ``AtomId``s, ints and floats, in
the same order, as an eager build) and keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .filtration import AtomId, Martingale, evaluate_at, vector_norms
from .norms import lorentz_p1_segments, lp_norm_segments
from .spacew import _row_norms


@dataclass(slots=True)
class FlatTree:
    root: AtomId
    members: dict[int, np.ndarray]        # level -> sorted atom indices
    fruits: list[AtomId] = field(default_factory=list)
    leaf_atoms: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))


@dataclass(frozen=True, eq=False)
class ForestIndex:
    """The flat forest in columns, per level n < N and per tree; read-only."""

    tree_of: list[np.ndarray]     # each atom's tree id, -1 on convex atoms
    ids: list[np.ndarray]         # the trees with members at n, ascending
    counts: list[np.ndarray]      # each of those trees' member count at n
    members: list[np.ndarray]     # their members, tree by tree, each ascending
    root_level: np.ndarray        # per tree, in tree order
    root_index: np.ndarray

    @cached_property
    def roots(self) -> list[AtomId]:
        """Each tree's root, in tree order, built on first use and kept, so
        ``FlatForest.trees`` and the reports' ``per_tree`` lists share them."""
        return list(map(AtomId, self.root_level.tolist(), self.root_index.tolist()))


_EMPTY = np.zeros(0, dtype=np.int64)


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each run of equal values in nonnegative ``keys``: its value and its length."""
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.diff(starts, append=keys.size)


def _index_forest(convex: list[np.ndarray]) -> ForestIndex:
    """Tree ids from the convex masks: a flat atom takes its parent's tree id,
    the other flat atoms root new trees numbered in index order."""
    tree_of, ids, counts, members = [], [], [], []
    root_level, root_index = [_EMPTY], [_EMPTY]
    n_trees = 0
    for n, mask in enumerate(convex):
        flat = ~mask
        of = np.full(mask.size, -1, dtype=np.int64)
        if n > 0:  # each parent's id repeated over its m children
            of[flat] = np.repeat(tree_of[n - 1], mask.size // convex[n - 1].size)[flat]
        new_roots = np.flatnonzero(flat & (of < 0))
        of[new_roots] = n_trees + np.arange(new_roots.size)
        n_trees += new_roots.size
        root_level.append(np.full(new_roots.size, n, dtype=np.int64))
        root_index.append(new_roots)
        flat_idx = np.flatnonzero(flat)
        order = np.argsort(of[flat_idx], kind="stable")
        level_ids, level_counts = _runs(of[flat_idx][order])
        tree_of.append(of)
        ids.append(level_ids)
        counts.append(level_counts)
        members.append(flat_idx[order])
    root_level, root_index = np.concatenate(root_level), np.concatenate(root_index)
    for a in [*tree_of, *ids, *counts, *members, root_level, root_index]:
        a.flags.writeable = False
    return ForestIndex(tree_of, ids, counts, members, root_level, root_index)


class TreeColumns(NamedTuple):
    """What each flat tree holds beyond its members, as arrays in tree order;
    read-only, laid out by ``classify_atoms``."""

    fruit_level: np.ndarray       # the fruits, tree by tree, each tree's by level, then index
    fruit_index: np.ndarray
    leaf_atoms: np.ndarray        # the leaf atoms, tree by tree, each tree's ascending
    n_members: np.ndarray         # per tree
    n_fruits: np.ndarray
    n_leaf_atoms: np.ndarray


class _BuiltOnRead:
    """Base of a dataclass with one field declared ``field(init=False)`` and
    built on its first read.  ``_defer(name, build, *args)`` keeps the builder
    outside the fields; the first read of ``name`` reaches ``__getattr__``,
    because the field has no value yet, which calls ``build(*args)`` once and
    stores the result as the field's value.  Equality, ``repr`` and
    ``dataclasses.fields`` then see an ordinary field."""

    def _defer(self, name: str, build, *args):
        vars(self)["_pending"] = (name, build, args)
        return self

    def __getattr__(self, name: str):
        pending = vars(self).get("_pending")
        if pending is None or pending[0] != name:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = pending[1](*pending[2])
        setattr(self, name, value)
        del self._pending
        return value


@dataclass
class FlatForest(_BuiltOnRead):
    """The convex labels and the flat trees.

    ``classify_atoms`` leaves ``trees`` unbuilt, and ``FlatForest.columns``
    holds the trees' contents as arrays; the first read of ``trees`` builds
    the ``FlatTree``s from ``index`` and ``columns``.  A forest built by hand
    assigns its ``trees`` after construction and has no ``columns``.
    """

    epsilon: float
    convex: list[np.ndarray]              # per level n < N, boolean mask
    trees: list[FlatTree] = field(init=False)
    increments: list[np.ndarray]          # E(|F_{n+1}|-|F_n|) chi_omega per atom
    level_masses: list[np.ndarray]        # E|F_n| chi_omega per atom

    def n_convex(self) -> int:
        return int(sum(mask.sum() for mask in self.convex))

    @cached_property
    def index(self) -> ForestIndex:
        """The forest's columnar layout, derived from ``convex`` on first use
        and kept.  It is not a dataclass field, so whatever walks a forest's
        fields (equality, ``dataclasses.fields``, the benchmark's result
        digests) sees the forest's outputs only."""
        return _index_forest(self.convex)


def _children(atoms: np.ndarray, m: int) -> np.ndarray:
    return (atoms[:, None] * m + np.arange(m)).ravel()


def _slices(ids: np.ndarray, counts: np.ndarray):
    """(tree, start, stop) of each tree's consecutive run of ``counts``."""
    stops = np.cumsum(counts)
    return zip(ids.tolist(), (stops - counts).tolist(), stops.tolist())


def classify_atoms(F: Martingale, epsilon: float) -> FlatForest:
    """Label every internal atom convex or flat and lay out the flat forest.

    The forest's index (``FlatForest.index``) is built here once from the
    convex masks: per level, every atom's tree id, the trees with members
    there and their members; per tree, its root.  Its ``columns`` follow:
    fruits, the convex atoms whose parent is flat, are grouped by tree with
    one stable sort; leaves, the bottom atoms whose parent is flat, are the
    children of the bottom members; and each tree's member, fruit and leaf
    counts.  The work is linear in the number of atoms, and no per-tree
    object is built: ``trees`` is built from the index and the columns on
    its first read.  The index and the columns are kept outside the fields,
    so the forest's fields stay its outputs.
    """
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    spec = F.spec
    m = spec.m
    increments, level_masses, child_means = map(list, F.increments)
    convex = [
        (inc >= epsilon * base) & (child_mean > 0)
        for inc, base, child_mean in zip(increments, level_masses, child_means)
    ]
    forest = FlatForest(epsilon, convex, increments, level_masses)
    index = forest.index
    n_trees = index.root_level.size

    n_members = np.zeros(n_trees, dtype=np.int64)
    for ids, counts in zip(index.ids, index.counts):
        n_members[ids] += counts

    fruit_tree, fruit_level, fruit_index = [_EMPTY], [_EMPTY], [_EMPTY]
    for n in range(1, spec.depth):
        conv_idx = np.flatnonzero(convex[n])
        parent = index.tree_of[n - 1][conv_idx // m]
        under_tree = parent >= 0
        fruit_tree.append(parent[under_tree])
        fruit_index.append(conv_idx[under_tree])
        fruit_level.append(np.full(fruit_index[-1].size, n))
    fruit_tree = np.concatenate(fruit_tree)
    order = np.argsort(fruit_tree, kind="stable")

    n_leaf_atoms = np.zeros(n_trees, dtype=np.int64)
    n_leaf_atoms[index.ids[-1]] = m * index.counts[-1]
    forest.columns = TreeColumns(
        fruit_level=np.concatenate(fruit_level)[order],
        fruit_index=np.concatenate(fruit_index)[order],
        leaf_atoms=_children(index.members[-1], m),
        n_members=n_members,
        n_fruits=np.bincount(fruit_tree, minlength=n_trees),
        n_leaf_atoms=n_leaf_atoms,
    )
    for a in forest.columns:
        a.flags.writeable = False
    return forest._defer("trees", _flat_trees, index, forest.columns)


def _flat_trees(index: ForestIndex, columns: TreeColumns) -> list[FlatTree]:
    """The ``FlatTree``s that ``index`` and ``columns`` lay out, in tree order."""
    members: list[dict[int, np.ndarray]] = [{} for _ in range(index.root_level.size)]
    for n, (ids, counts, atoms) in enumerate(zip(index.ids, index.counts, index.members)):
        for t, start, stop in _slices(ids, counts):
            members[t][n] = atoms[start:stop]

    atoms = list(map(AtomId, columns.fruit_level.tolist(), columns.fruit_index.tolist()))
    stops = np.cumsum(columns.n_fruits).tolist()
    fruits = [atoms[start:stop] for start, stop in zip([0, *stops], stops)]

    leaves = [_EMPTY] * len(members)
    bottom = index.ids[-1]
    for t, start, stop in _slices(bottom, columns.n_leaf_atoms[bottom]):
        leaves[t] = columns.leaf_atoms[start:stop]

    return list(map(FlatTree, index.roots, members, fruits, leaves))


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


def _end_l1_norms(F: Martingale) -> tuple[float, float]:
    """E|F_N| and E|F_0|."""
    return float(F.norms[-1].mean()), float(np.linalg.norm(F.f0))


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
    increments = F.increments[0]
    increment_sum = float(sum(inc.sum() for inc in increments))
    final_l1, initial_l1 = _end_l1_norms(F)
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
    for n, diff_mags in enumerate(F.diff_norms):  # (atoms, m)
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
    final_l1, initial_l1 = _end_l1_norms(F)
    telescoped = constant * (final_l1 - initial_l1)
    return ConvexLemmaReport(
        constant=constant,
        max_atom_ratio=max_ratio,
        besov_co=besov_co,
        telescoped_bound=telescoped,
        holds=bool(besov_co <= telescoped * (1 + 1e-12) + 1e-15 and max_ratio <= 1 + 1e-12),
    )


def _root_masses(F: Martingale, forest: FlatForest, p: float = 1.0) -> np.ndarray:
    """m^{-n_0/p} |F_{n_0}(omega_0)| at each tree root omega_0, in tree order.
    The roots of one level share a batched norm, bit for bit each vector's."""
    root_level, root_index = forest.index.root_level, forest.index.root_index
    norms = np.zeros(root_level.size)
    for n in np.unique(root_level).tolist():
        here = root_level == n
        norms[here] = _row_norms(evaluate_at(F, n, root_index[here]))
    return np.array([float(F.spec.m) ** (-n / p) for n in range(F.spec.depth + 1)])[root_level] * norms


def tree_leaf_values(F: Martingale, forest: FlatForest, scales=None):
    """F_T = sum_n scales[n] f_{n+1} chi_{T cap A_n} on the leaves, where A_n
    is the set of level-n atoms, for all trees at once, one root level at a
    time.

    Yields ``(level, ids, values)``: the ids of the trees rooted at ``level``
    (ascending) and a (len(ids) * m^(N - level), ell) array that holds F_T
    on the leaves of each such tree's root cylinder only, tree after tree;
    the leaves outside them, where F_T vanishes, are not stored.  The array
    is built top down: from one zero row per tree it is repeated over the m
    children at each level and takes that level's blocks at its members'
    positions, so the work is linear in the size of the root cylinders.
    Each leaf receives its terms in ascending level order.  ``scales``
    defaults to all ones.
    """
    spec = F.spec
    m, ell = spec.m, spec.ell
    index = forest.index
    # Trees are numbered by root level, so at each level n the trees rooted
    # at one level are one slice of ids[n], and their members one of members[n].
    levels = np.arange(spec.depth + 1)
    first_tree = np.searchsorted(index.root_level, levels)
    tree_bounds = [np.searchsorted(index.root_level[ids], levels).tolist() for ids in index.ids]
    member_bounds = [np.concatenate(([0], np.cumsum(counts))).tolist() for counts in index.counts]
    for level in np.unique(index.root_level).tolist():
        t0, t1 = first_tree[level], first_tree[level + 1]
        values = np.zeros((t1 - t0, ell))
        for n in range(level, spec.depth):
            a, b = tree_bounds[n][level : level + 2]
            ids = index.ids[n][a:b]
            atoms = index.members[n][member_bounds[n][a] : member_bounds[n][b]]
            block = F.diffs[n].reshape(-1, m * ell).take(atoms, axis=0)
            if scales is not None:
                block = scales[n] * block
            # a level-n atom of tree t sits at row (t - t0 - root) * m^(n - level) past its index
            rows = atoms + np.repeat((ids - t0 - index.root_index[ids]) * m ** (n - level), index.counts[n][a:b])
            values = np.repeat(values, m, axis=0)
            children = values.reshape(-1, m * ell)
            children[rows] = children.take(rows, axis=0) + block
        yield level, np.arange(t0, t1), values


def _tree_leaf_sums(F: Martingale, forest: FlatForest, scales=None, weight=None) -> np.ndarray:
    """Per tree, the sum over its root cylinder's leaves of |F_T| (times the
    leaf's ``weight``, if given); F_T and ``scales`` as in ``tree_leaf_values``."""
    spec = F.spec
    root_index = forest.index.root_index
    sums = np.zeros(root_index.size)
    for level, ids, values in tree_leaf_values(F, forest, scales):
        # one row per tree: the leaf norms of its root cylinder
        span = spec.m ** (spec.depth - level)
        leaf = vector_norms(values.reshape(-1, span, spec.ell))
        if weight is not None:
            leaf = leaf * weight.reshape(-1, span)[root_index[ids]]
        sums[ids] = leaf.sum(axis=1)
    return sums


def _running_max(start: float, values: np.ndarray) -> float:
    """``max(start, *values)`` for ``start`` not NaN: NaN values never win."""
    return float(np.fmax.reduce(values, initial=start))


@dataclass
class TreeGrowthReport(_BuiltOnRead):
    """``per_tree`` holds, per tree, its root, its ``(level, ratio)`` rows and
    whether its root is degenerate.  ``verify_flat_tree_growth`` leaves it
    unbuilt: the first read builds it from the per-level ``(tree ids,
    ratios)`` columns and keeps it."""

    alpha: float
    max_ratio: float
    per_tree: list[dict] = field(init=False)


def _growth_rows(index: ForestIndex, degenerate: np.ndarray, level_rows) -> list[dict]:
    rows: list[list] = [[] for _ in range(degenerate.size)]
    for n, ids, ratios in level_rows:
        for t, ratio in zip(ids.tolist(), ratios.tolist()):
            rows[t].append((n, ratio))
    return [
        {"root": root, "ratios": tree_rows, "degenerate": flag}
        for root, tree_rows, flag in zip(index.roots, rows, degenerate.tolist())
    ]


def verify_flat_tree_growth(
    F: Martingale, forest: FlatForest, p: float, kappa_at_inv_p: float, alpha_margin: float
) -> TreeGrowthReport:
    """Ratios of ||sum_{omega in T cap AF_n} F_{n+1} chi|| _{L_p} against the
    e^{alpha(n - n_0)} envelope from the tree root, alpha = kappa(1/p) + margin."""
    spec = F.spec
    m = spec.m
    alpha = kappa_at_inv_p + alpha_margin
    level_norms = F.norms
    index = forest.index
    root_norm = _root_masses(F, forest, p)
    envelope = np.array([np.exp(alpha * k) for k in range(spec.depth + 1)])
    level_rows = []
    max_ratio = 0.0
    for n, (ids, counts, atoms) in enumerate(zip(index.ids, index.counts, index.members)):
        live = root_norm[ids] != 0.0
        if not live.all():
            ids, counts, atoms = ids[live], counts[live], atoms[np.repeat(live, counts)]
        if ids.size == 0:
            continue
        # the members' children, block by block
        mags = level_norms[n + 1].reshape(-1, m).take(atoms, axis=0).ravel()
        lhs = lp_norm_segments(mags, counts * m, float(m) ** (-(n + 1)), p)
        ratios = lhs / (envelope[n - index.root_level[ids]] * root_norm[ids])
        level_rows.append((n, ids, ratios))
        max_ratio = _running_max(max_ratio, ratios)
    report = TreeGrowthReport(alpha=alpha, max_ratio=max_ratio)
    return report._defer("per_tree", _growth_rows, index, root_norm == 0.0, level_rows)


@dataclass
class TreeSummationReport(_BuiltOnRead):
    """``per_tree`` holds, per tree, its root, Lorentz sum, root mass,
    ||F_T||_{L_1} and, where it has one, its Lorentz ratio.
    ``verify_tree_summation`` leaves it unbuilt: the first read builds it
    from those per-tree columns and keeps it."""

    p: float
    max_lorentz_ratio: float
    max_stopping_ratio: float
    per_tree: list[dict] = field(init=False)


def _summation_rows(index: ForestIndex, lorentz_sum, root_mass, ft_l1, ratios, has_ratio) -> list[dict]:
    per_tree = []
    columns = (lorentz_sum, root_mass, ft_l1, ratios, has_ratio)
    for root, lsum, mass, ft, ratio, has in zip(index.roots, *(c.tolist() for c in columns)):
        entry = {"root": root, "lorentz_sum": lsum, "root_mass": mass, "ft_l1": ft}
        if has:
            entry["lorentz_ratio"] = ratio
        per_tree.append(entry)
    return per_tree


def verify_tree_summation(F: Martingale, forest: FlatForest, p: float) -> TreeSummationReport:
    """Per tree: the weighted Lorentz sum against E|F_{n_0}| chi_{omega_0}, and
    the stopping-time control ||F_T||_{L_1} <= C ||F||_{L_1}."""
    spec = F.spec
    m = spec.m
    total_l1 = float(F.norms[-1].mean())
    root_mass = _root_masses(F, forest)
    diff_norms = F.diff_norms

    # Each tree's Lorentz sum accumulates in ascending level order.
    index = forest.index
    lorentz_sum = np.zeros(index.root_level.size)
    for n, (ids, counts, atoms) in enumerate(zip(index.ids, index.counts, index.members)):
        if ids.size == 0:
            continue
        mags = diff_norms[n].take(atoms, axis=0).ravel()
        norm = lorentz_p1_segments(mags, counts * m, float(m) ** (-(n + 1)), p)
        lorentz_sum[ids] += float(m) ** (-(p - 1) / p * n) * norm

    # ||F_T||_{L_1}: F_T is supported on the root cylinder.
    ft_l1 = float(m) ** (-spec.depth) * _tree_leaf_sums(F, forest)

    # A degenerate root (no mass) with a Lorentz sum above round-off has an
    # infinite ratio; one without has none.
    positive = root_mass > 0
    has_ratio = positive | (lorentz_sum > 1e-13)
    ratios = np.full(lorentz_sum.size, np.inf)
    np.divide(lorentz_sum, root_mass, out=ratios, where=positive)
    max_lorentz = np.inf if np.any(has_ratio & ~positive) else _running_max(0.0, ratios[positive])
    max_stopping = _running_max(0.0, ft_l1 / total_l1) if total_l1 > 0 else 0.0
    report = TreeSummationReport(p=p, max_lorentz_ratio=max_lorentz, max_stopping_ratio=max_stopping)
    return report._defer("per_tree", _summation_rows, index, lorentz_sum, root_mass, ft_l1, ratios, has_ratio)


def verify_tree_trace(F: Martingale, forest: FlatForest, nu, nu_levels, alpha, p, c_frostman):
    """Per flat tree: the empirical C of ||I_alpha[F_T]||_{L_1(nu)} <= C m^{-n_0}
    |F_{n_0}(omega_0)|, and the worst ratio of the interpolatory estimate (nu's
    density on the root cylinder, exponent p) to the Frostman constant."""
    if not np.isfinite(p) or p <= 1:
        raise ValueError(f"p must be finite and > 1, got {p}")
    spec = F.spec
    m = spec.m
    q = p / (p - 1.0)
    index = forest.index
    root_level, root_index = index.root_level, index.root_index
    scales = [float(m) ** (-alpha * (n + 1)) for n in range(spec.depth)]
    l1_nu = _tree_leaf_sums(F, forest, scales, nu.leaf_mass)
    denom = _root_masses(F, forest)
    tree_constants = (l1_nu[denom > 0] / denom[denom > 0]).tolist()

    # Interpolatory estimate of the restricted measure martingale: the nu
    # density on the root cylinder at every level where the tree has members.
    interp_max = 0.0
    for n, tree_ids in enumerate(index.ids):
        for n0 in np.unique(root_level[tree_ids]).tolist():
            roots = root_index[tree_ids[root_level[tree_ids] == n0]]
            dens = nu_levels[n].reshape(m**n0, m ** (n - n0))[roots] * float(m) ** n
            sums = float(m) ** (-n) * (dens**q).sum(axis=1)
            rhs = float(m) ** ((p - 1) / p * (alpha - 1) * n0 + alpha * n / p)
            if rhs > 0 and c_frostman > 0:
                # one scalar libm pow per tree, as the tree-by-tree form takes it
                lhs = np.array([s ** (1.0 / q) for s in sums.tolist()])
                interp_max = _running_max(interp_max, lhs / (c_frostman * rhs))
    return tree_constants, interp_max
