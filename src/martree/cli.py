"""Experiment runner: one table of experiments behind ``run`` and its subcommands.

``EXPERIMENTS`` maps each config kind to its handler and the config fields it
reads, each typed and with one default.  ``martree run config.json`` rejects a
field the kind does not read or a wrongly typed value, then runs the handler.
Each kind is also a subcommand (``martree hls --p 2 --q 4``), one flag per
field, that builds the same config and runs it the same way; ``run`` is the
only other subcommand.  The utilities are kinds too: ``gen-w`` and ``cascade``
write the W or measure file they are given, and ``norm`` prints one norm.
Outputs echo the version, the parameters and the sha256 of the canonical
config, so a re-run reproduces them byte for byte.  Exit codes: 0 success, 2
invalid configuration or parameters, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import cache
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, decomp, dimension, fileio, groupfourier, kappa, norms, riesz, trace
from .filtration import MAX_LEAVES, FiltrationSpec
from .spacew import SubspaceW, check_first_condition, check_second_condition, delta_vector

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    pass


class NumericFailure(Exception):
    pass


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _require_finite(values, label):
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NumericFailure(f"non-finite values in {label}")


def _csv(meta: dict, columns: list[str], rows) -> str:
    lines = [f"# martree={__version__}"]
    for key in sorted(meta):
        lines.append(f"# {key}={meta[key]}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


def _json_text(document) -> str:
    return json.dumps(document, indent=1, sort_keys=True, default=_json_default) + "\n"


def _json_rows(rows: list, indent: int, keys: list[str] | None = None) -> str:
    """The text ``_json_text`` gives a list of int rows whose items sit
    ``indent`` spaces in: each row a list or, with ``keys``, an object over
    them; rendered from the rows, with no dict or list per row."""
    if not rows:
        return "[]"
    pad, (left, right) = " " * indent, "{}" if keys else "[]"
    fields = [f' "{key}": %d' for key in keys] if keys else [" %d"] * len(rows[0])
    row = f"{pad}{left}\n" + ",\n".join(pad + field for field in fields) + f"\n{pad}{right}"
    return "[\n" + ",\n".join(row % tuple(r) for r in rows) + f"\n{pad[1:]}]"


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (complex, np.complexfloating)):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot serialize {type(obj)}")


def _print_json(out_dir: Path, name: str, document) -> None:
    text = _json_text(document)
    sys.stdout.write(text)
    _write(out_dir, name, text)


def _write_table(out_dir: Path, name: str, meta: dict, columns, rows, *summary: str) -> None:
    """Write a CSV, then print the summary lines and where the CSV went."""
    path = _write(out_dir, name, _csv(meta, columns, rows))
    print(*summary, f"wrote {path}", sep="\n")


def _rle(mask: np.ndarray) -> list[list[int]]:
    """[[value, run length], ...] of ``mask`` as 0/1 ints, in order."""
    return np.column_stack(decomp._runs(mask.astype(int))).tolist()


# ---------------------------------------------------------------- experiments
# A handler receives the checked config as a namespace (each field under its
# flag name: w, measure, m, depth, p, ...; depths as the list of depths), the
# output directory, and the CSV metadata so far (config hash and kind).


def _check_w(c, out_dir, meta):
    """Structural conditions of a subspace, as JSON."""
    W = fileio.read_subspace(c.w)
    second, second_wit, second_diag = check_second_condition(W)
    first, first_wit, first_diag = check_first_condition(W, seed=c.seed)
    doc = {
        "second_condition": second,
        "second_witness": None if second_wit is None else {"j": second_wit[0], "a": second_wit[1]},
        "first_condition": first,
        "first_witness": None if first_wit is None else {"v": first_wit[0], "a": first_wit[1]},
        "residuals": {"second": second_diag, "first": first_diag},
    }
    _print_json(out_dir, "check_w.json", doc)


def _kappa(c, out_dir, meta):
    """kappa profile, kappa'(1) and the dimension bound."""
    W = fileio.read_subspace(c.w)
    profile = kappa.kappa_profile(W, grid_size=c.grid, seed=c.seed)
    _require_finite(profile.values, "kappa profile")
    rows = [
        [theta, wit.value, wit.residual] + list(wit.v) + list(wit.a)
        for theta, wit in zip(profile.theta_grid, profile.witnesses)
    ]
    columns = ["theta", "kappa", "residual"] + [f"v{i}" for i in range(W.m)]
    columns += [f"a{i}" for i in range(W.ell)]
    prime, bound = _fmt(profile.kappa_prime_one), _fmt(profile.dimension_bound)
    meta.update(grid=c.grid, seed=c.seed, w=c.w, kappa_prime_one=prime, dimension_bound=bound)
    summary = f"kappa_prime_one={prime}", f"dimension_bound={bound}"
    _write_table(out_dir, "kappa.csv", meta, columns, rows, *summary)


def _write_ratios(out_dir, name, meta, report, **extra):
    """The per-trial (else per-depth) ratios of an embedding or trace report."""
    _require_finite(report.ratios, "ratios")
    meta.update(extra, verdict=report.verdict)
    per_trial = report.details.get("per_trial")
    if per_trial is not None:
        columns = ["depth", "trial", "ratio"]
        pairs = zip(report.depths, per_trial)
        rows = [[str(d), str(t), _fmt(r)] for d, row in pairs for t, r in enumerate(row)]
    else:
        columns = ["depth", "ratio"]
        rows = [[str(d), _fmt(r)] for d, r in zip(report.depths, report.ratios)]
    _write_table(out_dir, name, meta, columns, rows, f"verdict={report.verdict}")


def _write_embedding(out_dir, meta, mode, report, **extra):
    trend = {"slope": _fmt(report.slope), "predicted_rate": _fmt(report.predicted_rate)}
    _write_ratios(out_dir, f"embed_{mode}.csv", meta, report, mode=mode, **extra, **trend)


def _hls(c, out_dir, meta):
    """Hardy-Littlewood-Sobolev embedding ratios across depths."""
    spec = FiltrationSpec(c.m, max(c.depths), c.ell)
    report = riesz.hls_experiment(c.p, c.q, spec, trials=c.trials, seed=c.seed, depths=c.depths)
    _write_embedding(out_dir, meta, "hls", report, p=c.p, q=c.q)


def _delta_counterexample(c, out_dir, meta):
    """Growth certificate of the delta construction."""
    spec = FiltrationSpec(c.m, max(c.depths), c.ell)
    report = riesz.delta_counterexample(c.p, spec, depths=c.depths)
    _write_embedding(out_dir, meta, "delta", report, p=c.p)


def _main_inequality(c, out_dir, meta):
    """The main inequality's ratios for random W-martingales."""
    W, spec = fileio.read_subspace(c.w), FiltrationSpec(c.m, max(c.depths), c.ell)
    report = riesz.main_inequality_experiment(
        W, c.p, spec, trials=c.trials, seed=c.seed, depths=c.depths
    )
    _write_embedding(out_dir, meta, "main", report, p=c.p, w=c.w)


def _decompose(c, out_dir, meta):
    """Convex/flat forest and its verification reports."""
    F = fileio.read_martingale(c.martingale)
    forest = decomp.classify_atoms(F, c.eps)
    stepwise = decomp.verify_stepwise_identity(F)
    lemma = decomp.verify_convex_lemma(F, forest)
    index, columns = forest.index, forest.columns
    n_trees = index.root_level.size
    doc = {
        "epsilon": c.eps,
        "labels_rle": "@labels@",
        "n_convex": forest.n_convex(),
        "n_trees": n_trees,
        "trees": "@trees@",
    }
    levels = sorted(str(n) for n in range(len(forest.convex)))
    runs = (f'  "{n}": ' + _json_rows(_rle(forest.convex[int(n)]), 3) for n in levels)
    labels = "{\n" + ",\n".join(runs) + "\n }"
    tree_columns = dict(root_level=index.root_level, root_index=index.root_index, n_members=columns.n_members,
                        n_fruits=columns.n_fruits, n_leaf_atoms=columns.n_leaf_atoms)
    keys = sorted(tree_columns)
    trees = _json_rows(list(zip(*(tree_columns[key].tolist() for key in keys))), 2, keys)
    text = _json_text(doc).replace('"@labels@"', labels, 1).replace('"@trees@"', trees, 1)
    _write(out_dir, "forest.json", text)
    steps = ("increment_sum", "final_l1", "initial_l1", "identity_gap", "min_atom_increment")
    rows = [[name, _fmt(getattr(stepwise, name))] for name in steps] + [
        ["convex_constant", _fmt(lemma.constant)],
        ["convex_max_atom_ratio", _fmt(lemma.max_atom_ratio)],
        ["besov_co", _fmt(lemma.besov_co)],
        ["telescoped_bound", _fmt(lemma.telescoped_bound)],
        ["convex_lemma_holds", str(lemma.holds)],
    ]
    meta.update(eps=c.eps, f=c.martingale)
    summary = f"trees={n_trees} convex_atoms={forest.n_convex()}"
    _write_table(out_dir, "decompose.csv", meta, ["quantity", "value"], rows, summary)


def _frostman(c, out_dir, meta):
    """Frostman certificate of a measure at exponent beta."""
    cert = dimension.frostman_certify(fileio.read_measure(c.measure), beta=c.beta, gamma=c.gamma)
    rows = [[str(d + 1), _fmt(r)] for d, r in enumerate(cert.per_depth_ratio)]
    meta.update(beta=c.beta, gamma=c.gamma, verdict=cert.verdict, constant=_fmt(cert.constant))
    meta.update(witness_constant=_fmt(cert.witness_constant), slope=_fmt(cert.slope))
    summary = f"verdict={cert.verdict} constant={_fmt(cert.constant)}"
    _write_table(out_dir, "frostman.csv", meta, ["depth", "best_ratio"], rows, summary)


def _sharpness_spec(c, W: SubspaceW) -> FiltrationSpec:
    """W's (m, ell) at the config's depth; a stated m or ell must match W's."""
    for name in ("m", "ell"):
        given, actual = getattr(c, name), getattr(W, name)
        if given is not None and given != actual:
            raise ConfigError(f"config rejected: filtration.{name}={given}, W has {name}={actual}")
    return FiltrationSpec(W.m, c.depth, W.ell)


def _dimension_sharpness(c, out_dir, meta):
    """The extremal measure of the dimension bound and its Eggleston dimension."""
    W = fileio.read_subspace(c.w)
    mm, _ = dimension.build_sharpness_measure(W, _sharpness_spec(c, W), seed=c.seed)
    dim = dimension.eggleston_dimension(mm.weights)
    bound = kappa._bound_of(mm._prime, W.m)  # the build's kappa'(1) witness: no second search
    rows = [["eggleston_dimension", _fmt(dim)], ["dimension_bound", _fmt(bound)]]
    rows += [[f"weight_{j}", _fmt(wj)] for j, wj in enumerate(mm.weights)]
    meta.update(w=c.w, depth=c.depth)
    summary = f"eggleston_dimension={_fmt(dim)} dimension_bound={_fmt(bound)}"
    _write_table(out_dir, "sharpness.csv", meta, ["quantity", "value"], rows, summary)
    fileio.write_measure(out_dir / "sharpness_measure.json", mm.measure)


def _group_cancel(c, out_dir, meta):
    """Cancellation condition of a fiber family, as JSON."""
    holds, witness = groupfourier.check_cancellation_fibers(fileio.read_fibers(c.fibers))
    _print_json(out_dir, "group_check_cancel.json", {"cancellation": holds, "witness": witness})


def _group_antisym(c, out_dir, meta):
    """Antisymmetry condition of a fiber family, as JSON."""
    holds, witness = groupfourier.check_antisymmetry_fibers(fileio.read_fibers(c.fibers))
    witness = None if witness is None else {"gamma": witness[0], "a": witness[1]}
    _print_json(out_dir, "group_check_antisym.json", {"antisymmetry": holds, "witness": witness})


def _group_subgroup_bound(c, out_dir, meta):
    """Dimension bound from the subgroups holding the antisymmetry sets, as JSON."""
    bound, K, maximal = groupfourier.antisymmetry_subgroup_bound(fileio.read_fibers(c.fibers))
    doc = {"bound": bound, "K": K, "maximal_sets": [list(t) for t in maximal]}
    _print_json(out_dir, "group_subgroup_bound.json", doc)


def _trace_constant(c, out_dir, meta):
    """Print the Frostman constant of a measure; writes no file."""
    print(_fmt(trace.frostman_constant(fileio.read_measure(c.measure), c.alpha, c.p)))


def _trace_embed_p(c, out_dir, meta):
    """Trace embedding ratios into L_p(nu) for random W-martingales."""
    nu, W = fileio.read_measure(c.measure), fileio.read_subspace(c.w)
    report = trace.trace_experiment_p(
        nu, W, alpha=c.alpha, p=c.p, trials=c.trials, seed=c.seed, depths=c.depths
    )
    _write_ratios(out_dir, "trace_embed_p.csv", meta, report, alpha=c.alpha, p=c.p)


def _trace_embed_l1(c, out_dir, meta):
    """The limiting p = 1 trace embedding ratios for random W-martingales."""
    nu, W = fileio.read_measure(c.measure), fileio.read_subspace(c.w)
    report = trace.trace_experiment_p(
        nu, W, alpha=c.alpha, p=1.0, trials=c.trials, seed=c.seed, depths=c.depths
    )
    _write_ratios(out_dir, "trace_embed_l1.csv", meta, report, alpha=c.alpha, p=1.0)


def _trace_sharpness(c, out_dir, meta):
    """The divergent (nu, F) pair of the linear-kappa trace construction."""
    W = fileio.read_subspace(c.w)
    nu, report = trace.build_sharpness_trace_measure(
        W, c.gamma, _sharpness_spec(c, W), seed=c.seed, depths=c.depths
    )
    columns = ["depth", "frostman_constant", "partial_sum", "l1_nu"]
    values = zip(report.frostman_constants, report.partial_sums, report.exact_l1_nu)
    rows = [[str(d), _fmt(k), _fmt(s), _fmt(e)] for d, (k, s, e) in zip(report.depths, values)]
    alpha, slope, derived = _fmt(report.alpha), _fmt(report.slope), _fmt(report.derived_constant)
    meta.update(gamma=c.gamma, alpha=alpha, slope=slope, derived_constant=derived)
    summary = f"alpha={alpha} slope={slope}"
    _write_table(out_dir, "trace_sharpness.csv", meta, columns, rows, summary)
    fileio.write_measure(out_dir / "trace_sharpness_measure.json", nu)


def _gen_w(c, out_dir, meta):
    """Write a subspace file: zero, delta, span or random."""
    a = np.eye(c.ell)[0]
    if c.kind == "zero":
        W = SubspaceW.zero(c.m, c.ell)
    elif c.kind == "delta":
        W = SubspaceW.from_blocks([np.outer(delta_vector(c.m, 0), a)], c.m, c.ell)
    elif c.kind == "span":
        W = SubspaceW.from_blocks([np.outer(np.eye(c.m)[0] - np.eye(c.m)[1], a)], c.m, c.ell)
    elif c.kind == "random":
        W = SubspaceW.random(c.m, c.ell, 1 if c.dim is None else c.dim, seed=c.seed)
    else:
        raise ConfigError(f"config rejected: params.kind must be zero, delta, span or random, got {c.kind!r}")
    if c.dim is not None and c.kind != "random":
        raise ConfigError(f"config rejected: gen-w {c.kind} reads no params.dim")
    fileio.write_subspace(c.w, W)
    print(f"wrote {c.w} (dim {W.dim})")


LEVEL_NORMS = {"lp": norms.lp_norm, "lorentz": norms.lorentz_p1_from_distribution, "weak": norms.weak_lp_norm}
NORMS = (*LEVEL_NORMS, "besov", "h1", "lpnu")


def _norm(c, out_dir, meta):
    """Print one norm of a martingale file: lp, lorentz, weak, besov, h1 or lpnu."""
    if c.name not in NORMS:
        raise ConfigError(f"config rejected: params.name must be one of {', '.join(NORMS)}, got {c.name!r}")
    if c.name == "lpnu" and c.measure is None:
        raise ConfigError("config rejected: norm lpnu needs measure_file")
    reads = {"measure_file": c.name == "lpnu", "params.p": c.name != "h1", "params.beta": c.name == "besov"}
    for path, value in (("measure_file", c.measure), ("params.p", c.p), ("params.beta", c.beta)):
        if value is not None and not reads[path]:
            raise ConfigError(f"config rejected: norm {c.name} reads no {path}")
    c.p = 2.0 if c.p is None else c.p
    F = fileio.read_martingale(c.martingale)
    if c.name == "besov":
        value = norms.besov_norm(F, 0.0 if c.beta is None else c.beta, c.p)
    elif c.name == "h1":
        value = norms.h1_norm(F)
    elif c.name == "lpnu":
        nu = fileio.read_measure(c.measure)
        if nu.spec.m != F.spec.m:
            raise ValueError(f"the measure's tree branches {nu.spec.m} ways, the martingale's {F.spec.m}")
        value = norms.lp_nu_norm(F.norms[-1], nu, c.p)
    else:
        value = LEVEL_NORMS[c.name](F.norms[-1], float(F.spec.m) ** (-F.spec.depth), c.p)
    _require_finite([value], f"norm {c.name}")
    print(_fmt(value))


def _cascade(c, out_dir, meta):
    """Write a capped multiplicative cascade measure."""
    spec = FiltrationSpec(c.m, c.depth, 1)
    fileio.write_measure(c.measure, trace.capped_cascade_measure(spec, alpha=c.alpha, p=c.p, seed=c.seed))
    print(f"wrote {c.measure}")


# ---------------------------------------------------------------- the table


REQUIRED = "required"


class Field(NamedTuple):
    type: type             # str, int, float, or list: a [lo, hi] pair of ints
    default: object = REQUIRED
    shown: str = ""        # the default as help states it, when not its value
    minimum: object = None  # the least value accepted, if any


class Experiment(NamedTuple):
    handler: Callable
    fields: dict           # "w_file", "seed", "filtration.m", "params.p", ... -> Field


SEED = {"seed": Field(int, None)}  # no subcommand flag: the global --seed sets it
SUBSPACE = {"w_file": Field(str), **SEED}
MEASURE = {"measure_file": Field(str)}
FIBERS = {"fibers_file": Field(str)}
DEPTH = {"filtration.depth": Field(int, 8)}
P = {"params.p": Field(float, 2.0)}
TRIALS = {"params.trials": Field(int, 20, minimum=1)}
DEPTHS = {"params.depths": Field(list, None, "[4, depth]")}
EMBED = {"filtration.m": Field(int, 3), **DEPTH, "filtration.ell": Field(int, 1), **P, **DEPTHS}
# The sharpness kinds build at W's m and ell; a config may only restate them.
AS_W = Field(int, None, "W's")
SHARPNESS = {**SUBSPACE, "filtration.m": AS_W, **DEPTH, "filtration.ell": AS_W}
ALPHA = {"params.alpha": Field(float, 0.5)}
TRACE = {**MEASURE, **SUBSPACE, **DEPTH, **ALPHA, **TRIALS, **DEPTHS}

EXPERIMENTS = {
    "kappa": Experiment(_kappa, {**SUBSPACE, "params.grid": Field(int, 21, minimum=2)}),
    "check-w": Experiment(_check_w, SUBSPACE),
    "hls": Experiment(_hls, {**SEED, **EMBED, "params.q": Field(float), **TRIALS}),
    "delta-counterexample": Experiment(_delta_counterexample, EMBED),
    "main-inequality": Experiment(_main_inequality, {**SUBSPACE, **EMBED, **TRIALS}),
    "decompose": Experiment(
        _decompose, {"martingale_file": Field(str), "params.eps": Field(float, 0.1)}
    ),
    "frostman": Experiment(
        _frostman, {**MEASURE, "params.beta": Field(float, 0.5), "params.gamma": Field(float, 0.5)}
    ),
    "dimension-sharpness": Experiment(_dimension_sharpness, SHARPNESS),
    "group-cancel": Experiment(_group_cancel, FIBERS),
    "group-antisym": Experiment(_group_antisym, FIBERS),
    "group-subgroup-bound": Experiment(_group_subgroup_bound, FIBERS),
    "trace-constant": Experiment(_trace_constant, {**MEASURE, **ALPHA, **P}),
    "trace-embed-p": Experiment(_trace_embed_p, {**TRACE, **P}),
    "trace-embed-l1": Experiment(_trace_embed_l1, TRACE),
    "trace-sharpness": Experiment(
        _trace_sharpness, {**SHARPNESS, "params.gamma": Field(float, 0.5), **DEPTHS}
    ),
    "gen-w": Experiment(_gen_w, {
        **SUBSPACE,
        "params.kind": Field(str, shown="required: zero, delta, span or random"),
        "filtration.m": Field(int, 3, minimum=2),
        "filtration.ell": Field(int, 1, minimum=1),
        "params.dim": Field(int, None, "1; random only", minimum=1),
    }),
    "cascade": Experiment(_cascade, {
        **MEASURE, **SEED, "filtration.m": Field(int, 3), **DEPTH,
        "params.alpha": Field(float), "params.p": Field(float, 1.0),
    }),
    "norm": Experiment(_norm, {
        "martingale_file": Field(str),
        "params.name": Field(str, shown="required: lp, lorentz, weak, besov, h1 or lpnu"),
        "params.p": Field(float, None, "2.0; all names but h1"),
        "params.beta": Field(float, None, "0.0; besov only"),
        "measure_file": Field(str, None, "none; lpnu needs one"),
    }),
}

TYPE_NAMES = {str: "a string", int: "an integer", float: "a number", list: "two integers"}


def _well_typed(value, kind: type) -> bool:
    """Exact JSON types: a bool is no number, a float no integer."""
    if kind is list:
        return isinstance(value, list) and [type(v) for v in value] == [int, int]
    return type(value) in ((int, float) if kind is float else (kind,))


def _resolve(doc) -> tuple[Experiment, SimpleNamespace]:
    """Check a config document against its kind's entry; the handler's namespace."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("config must be an object with a 'kind'")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    fields = {"out": Field(str, None), **EXPERIMENTS[kind].fields}
    given = {}  # the config's fields by path: "w_file", "params.p", ...
    for key, value in doc.items():
        if key in ("filtration", "params"):
            if not isinstance(value, dict):
                raise ConfigError(f"config rejected: {key} must be an object")
            given.update((f"{key}.{k}", v) for k, v in value.items())
        elif "." in key:
            raise ConfigError(f"config rejected: {kind} reads no {key!r} in config")
        elif key != "kind":
            given[key] = value
    values = {}
    for path, value in given.items():
        section, _, key = path.rpartition(".")
        if path not in fields:
            raise ConfigError(f"config rejected: {kind} reads no {key!r} in {section or 'config'}")
        if not _well_typed(value, fields[path].type):
            expected = TYPE_NAMES[fields[path].type]
            raise ConfigError(f"config rejected: {path} must be {expected}, got {value!r}")
        if fields[path].type is float and not np.isfinite(value):
            name = "epsilon" if key == "eps" else key  # as decompose's own check spells it
            raise ConfigError(f"config rejected: {path} must be finite, got {name}={value!r}")
        if fields[path].minimum is not None and value < fields[path].minimum:
            raise ConfigError(f"config rejected: {path} must be at least {fields[path].minimum}, got {value!r}")
        values[key] = value
    for path, field in fields.items():
        key = path.rpartition(".")[2]
        if key not in values and field.default is REQUIRED:
            raise ConfigError(f"config rejected: {kind} needs {path}")
        values.setdefault(key, field.default)
    if "depths" in values:  # every kind reading depths also reads depth, its default top
        lo, hi = values["depths"] or (4, values["depth"])
        if "filtration.depth" in given and hi != values["depth"]:
            raise ConfigError(
                f"config rejected: params.depths ends at {hi}, filtration.depth is {values['depth']}"
            )
        if lo > hi:
            raise ConfigError(f"config rejected: params.depths [{lo}, {hi}] runs backwards")
        if hi - lo >= MAX_LEAVES.bit_length():  # 2^(hi - lo) > MAX_LEAVES: more levels than any tree has
            raise ConfigError(f"config rejected: params.depths [{lo}, {hi}] spans more levels than a tree "
                              f"of at most {MAX_LEAVES} leaves has")
        values["depths"] = list(range(lo, hi + 1))
    namespace = {key.removesuffix("_file"): value for key, value in values.items()}
    return EXPERIMENTS[kind], SimpleNamespace(**namespace)


def _run_document(doc, args) -> None:
    exp, c = _resolve(doc)
    if getattr(c, "seed", 0) is None:
        c.seed = args.seed
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    meta = {"config_hash": hashlib.sha256(blob).hexdigest(), "kind": doc["kind"]}
    exp.handler(c, Path(c.out or args.out or "."), meta)


# ---------------------------------------------------------------- commands


def _cmd_run(args):
    try:
        doc = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _run_document(doc, args)


def _cmd_experiment(args):
    """Build the config document the subcommand's flags spell, and run it."""
    doc = {"kind": args.command}
    for path in EXPERIMENTS[args.command].fields:
        if f"field.{path}" in vars(args):
            section, _, key = path.rpartition(".")
            (doc.setdefault(section, {}) if section else doc)[key] = vars(args)[f"field.{path}"]
    _run_document(doc, args)


# ---------------------------------------------------------------- entry point


@cache  # parsing mutates neither the parser nor EXPERIMENTS, so one serves every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="martree",
        description="m-adic tree martingale laboratory",
    )
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a config-file experiment")
    p.set_defaults(handler=_cmd_run)
    p.add_argument("config")

    for kind, exp in EXPERIMENTS.items():
        p = sub.add_parser(kind, help=exp.handler.__doc__, argument_default=argparse.SUPPRESS)
        p.set_defaults(handler=_cmd_experiment)
        for path, field in exp.fields.items():
            if path == "seed":
                continue
            flag = path.rpartition(".")[2].removesuffix("_file")
            pair = {"nargs": 2, "metavar": ("LO", "HI")} if field.type is list else {}
            p.add_argument(
                f"--{flag}",
                dest=f"field.{path}",
                type=int if field.type is list else field.type,
                help=f"{path}; default: {field.shown or field.default}"
                + (f"; at least {field.minimum}" if field.minimum is not None else ""),
                **({"metavar": flag.upper()} | pair),
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except (NumericFailure, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, OSError, ValueError) as exc:  # OSError: a path that is not a usable file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
