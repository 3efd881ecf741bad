"""Experiment runner: one subcommand per module plus config-driven batches.

Outputs are CSV/JSON files whose first lines echo the artifact version, the
full parameter set, and (for ``run``) the sha256 of the canonical config, so
re-running any configuration reproduces every output byte for byte.  Exit
codes: 0 success, 2 invalid configuration or parameters, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .decomp import classify_atoms, verify_convex_lemma, verify_stepwise_identity
from .dimension import build_sharpness_measure, eggleston_dimension, frostman_certify
from .fileio import (
    read_fibers,
    read_martingale,
    read_measure,
    read_subspace,
    write_measure,
    write_subspace,
)
from .filtration import FiltrationSpec
from .groupfourier import (
    antisymmetry_subgroup_bound,
    check_antisymmetry_fibers,
    check_cancellation_fibers,
)
from .kappa import kappa_profile
from .norms import (
    besov_norm,
    h1_norm,
    lorentz_p1_norm,
    lp_norm,
    lp_nu_norm,
    martingale_level,
    weak_lp_norm,
)
from .riesz import delta_counterexample, hls_experiment, main_inequality_experiment
from .spacew import SubspaceW, delta_vector, structural_report
from .trace import (
    build_sharpness_trace_measure,
    capped_cascade_measure,
    frostman_constant,
    trace_experiment_l1,
    trace_experiment_p,
)

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


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (complex, np.complexfloating)):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot serialize {type(obj)}")


def _load_w(args) -> SubspaceW:
    if getattr(args, "w", None):
        return read_subspace(args.w)
    raise ConfigError("this command needs --w <subspace file>")


# ---------------------------------------------------------------- subcommands


def _cmd_gen_w(args, out_dir):
    if args.kind == "zero":
        W = SubspaceW.zero(args.m, args.ell)
    elif args.kind == "delta":
        a = np.zeros(args.ell)
        a[0] = 1.0
        W = SubspaceW.from_blocks([np.outer(delta_vector(args.m, 0), a)], args.m, args.ell)
    elif args.kind == "span":
        v = np.zeros(args.m)
        v[0], v[1] = 1.0, -1.0
        a = np.zeros(args.ell)
        a[0] = 1.0
        W = SubspaceW.from_blocks([np.outer(v, a)], args.m, args.ell)
    elif args.kind == "random":
        W = SubspaceW.random(args.m, args.ell, args.dim, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown generator kind {args.kind}")
    write_subspace(args.out, W)
    print(f"wrote {args.out} (dim {W.dim})")
    return EXIT_OK


def _cmd_norm(args, out_dir):
    F = read_martingale(args.f)
    name = args.name
    if name == "lp":
        value = lp_norm(martingale_level(F, F.spec.depth), args.p)
    elif name == "lorentz":
        value = lorentz_p1_norm(martingale_level(F, F.spec.depth), args.p)
    elif name == "weak":
        value = weak_lp_norm(martingale_level(F, F.spec.depth), args.p)
    elif name == "besov":
        value = besov_norm(F, args.beta, args.p)
    elif name == "h1":
        value = h1_norm(F)
    elif name == "lpnu":
        if not args.nu:
            raise ConfigError("norm lpnu needs --nu <measure file>")
        value = lp_nu_norm(martingale_level(F, F.spec.depth), read_measure(args.nu), args.p)
    else:  # pragma: no cover
        raise ConfigError(f"unknown norm {name}")
    _require_finite([value], f"norm {name}")
    print(_fmt(value))
    return EXIT_OK


def _cmd_check_w(args, out_dir, meta=None):
    W = _load_w(args)
    report = structural_report(W, seed=args.seed)
    doc = {
        "second_condition": report.second_condition,
        "second_witness": None
        if report.second_witness is None
        else {"j": report.second_witness[0], "a": report.second_witness[1]},
        "first_condition": report.first_condition,
        "first_witness": None
        if report.first_witness is None
        else {"v": report.first_witness[0], "a": report.first_witness[1]},
        "residuals": report.residuals,
    }
    text = _json_text(doc)
    sys.stdout.write(text)
    if meta is not None:
        _write(out_dir, "check_w.json", text)
    return EXIT_OK


def _cmd_kappa(args, out_dir, meta=None):
    W = _load_w(args)
    profile = kappa_profile(W, grid_size=args.grid, seed=args.seed)
    _require_finite(profile.values, "kappa profile")
    meta = dict(meta or {})
    meta.update({"grid": args.grid, "seed": args.seed, "w": getattr(args, "w", "")})
    rows = []
    for theta, wit in zip(profile.theta_grid, profile.witnesses):
        rows.append(
            [theta, wit.value, wit.residual]
            + list(wit.v)
            + list(wit.a)
        )
    columns = (
        ["theta", "kappa", "residual"]
        + [f"v{i}" for i in range(W.m)]
        + [f"a{i}" for i in range(W.ell)]
    )
    meta["kappa_prime_one"] = _fmt(profile.kappa_prime_one)
    meta["dimension_bound"] = _fmt(profile.dimension_bound)
    text = _csv(meta, columns, rows)
    path = _write(out_dir, "kappa.csv", text)
    print(f"kappa_prime_one={_fmt(profile.kappa_prime_one)}")
    print(f"dimension_bound={_fmt(profile.dimension_bound)}")
    print(f"wrote {path}")
    return EXIT_OK


def _report_csv(report, meta, extra_meta) -> str:
    meta = dict(meta)
    meta.update(extra_meta)
    meta["verdict"] = report.verdict
    meta["slope"] = _fmt(report.slope)
    meta["predicted_rate"] = _fmt(report.predicted_rate)
    per_trial = report.details.get("per_trial")
    rows = []
    if per_trial is not None:
        for i, depth in enumerate(report.depths):
            for t in range(per_trial.shape[1]):
                rows.append([str(depth), str(t), _fmt(per_trial[i, t])])
        return _csv(meta, ["depth", "trial", "ratio"], rows)
    for depth, value in zip(report.depths, report.ratios):
        rows.append([str(depth), _fmt(value)])
    return _csv(meta, ["depth", "ratio"], rows)


def _cmd_embed(args, out_dir, meta=None):
    spec = FiltrationSpec(args.m, max(args.depths), args.ell)
    depths = list(range(args.depths[0], args.depths[1] + 1))
    if args.mode == "hls":
        if args.q is None:
            raise ConfigError("hls mode needs --q")
        report = hls_experiment(args.p, args.q, spec, trials=args.trials, seed=args.seed, depths=depths)
        extra = {"mode": "hls", "p": args.p, "q": args.q}
    elif args.mode == "delta":
        report = delta_counterexample(args.p, spec, depths=depths)
        extra = {"mode": "delta", "p": args.p}
    elif args.mode == "main":
        W = _load_w(args)
        report = main_inequality_experiment(
            W, args.p, spec, trials=args.trials, seed=args.seed, depths=depths
        )
        extra = {"mode": "main", "p": args.p, "w": args.w}
    else:  # pragma: no cover
        raise ConfigError(f"unknown embed mode {args.mode}")
    _require_finite(report.ratios, "embedding ratios")
    text = _report_csv(report, meta or {}, extra)
    path = _write(out_dir, f"embed_{args.mode}.csv", text)
    print(f"verdict={report.verdict}")
    print(f"wrote {path}")
    return EXIT_OK


def _rle(mask: np.ndarray) -> list[list[int]]:
    runs = []
    start = 0
    values = mask.astype(int)
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] != values[start]:
            runs.append([int(values[start]), i - start])
            start = i
    return runs


def _cmd_decompose(args, out_dir, meta=None):
    F = read_martingale(args.f)
    forest = classify_atoms(F, args.eps)
    stepwise = verify_stepwise_identity(F)
    convex_lemma = verify_convex_lemma(F, forest)
    doc = {
        "epsilon": args.eps,
        "labels_rle": {str(n): _rle(mask) for n, mask in enumerate(forest.convex)},
        "n_convex": forest.n_convex(),
        "n_trees": len(forest.trees),
        "trees": [
            {
                "root_level": t.root.level,
                "root_index": t.root.index,
                "n_members": int(sum(len(v) for v in t.members.values())),
                "n_fruits": len(t.fruits),
                "n_leaf_atoms": int(t.leaf_atoms.size),
            }
            for t in forest.trees
        ],
    }
    text = _json_text(doc)
    _write(out_dir, "forest.json", text)
    rows = [
        ["increment_sum", _fmt(stepwise.increment_sum)],
        ["final_l1", _fmt(stepwise.final_l1)],
        ["initial_l1", _fmt(stepwise.initial_l1)],
        ["identity_gap", _fmt(stepwise.identity_gap)],
        ["min_atom_increment", _fmt(stepwise.min_atom_increment)],
        ["convex_constant", _fmt(convex_lemma.constant)],
        ["convex_max_atom_ratio", _fmt(convex_lemma.max_atom_ratio)],
        ["besov_co", _fmt(convex_lemma.besov_co)],
        ["telescoped_bound", _fmt(convex_lemma.telescoped_bound)],
        ["convex_lemma_holds", str(convex_lemma.holds)],
    ]
    text2 = _csv(dict(meta or {}, eps=args.eps, f=args.f), ["quantity", "value"], rows)
    path = _write(out_dir, "decompose.csv", text2)
    print(f"trees={len(forest.trees)} convex_atoms={forest.n_convex()}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_dimension(args, out_dir, meta=None):
    meta = dict(meta or {})
    if args.sharpness:
        W = _load_w(args)
        spec = FiltrationSpec(W.m, args.depth, W.ell)
        mm, lifted = build_sharpness_measure(W, spec, seed=args.seed)
        dim = eggleston_dimension(mm.weights)
        from .kappa import dimension_bound as kappa_dim_bound

        bound = kappa_dim_bound(W, seed=args.seed)
        rows = [
            ["eggleston_dimension", _fmt(dim)],
            ["dimension_bound", _fmt(bound)],
        ] + [[f"weight_{j}", _fmt(wj)] for j, wj in enumerate(mm.weights)]
        text = _csv(dict(meta, w=args.w, depth=args.depth), ["quantity", "value"], rows)
        path = _write(out_dir, "sharpness.csv", text)
        write_measure(out_dir / "sharpness_measure.json", mm.measure)
        print(f"eggleston_dimension={_fmt(dim)} dimension_bound={_fmt(bound)}")
        print(f"wrote {path}")
        return EXIT_OK
    if not args.measure:
        raise ConfigError("dimension needs --measure <file> or --w <file> --sharpness")
    mu = read_measure(args.measure)
    cert = frostman_certify(mu, beta=args.beta, gamma=args.gamma)
    rows = [[str(d + 1), _fmt(r)] for d, r in enumerate(cert.per_depth_ratio)]
    meta.update(
        {
            "beta": args.beta,
            "gamma": args.gamma,
            "verdict": cert.verdict,
            "constant": _fmt(cert.constant),
            "witness_constant": _fmt(cert.witness_constant),
            "slope": _fmt(cert.slope),
        }
    )
    text = _csv(meta, ["depth", "best_ratio"], rows)
    path = _write(out_dir, "frostman.csv", text)
    print(f"verdict={cert.verdict} constant={_fmt(cert.constant)}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_group(args, out_dir, meta=None):
    fibers = read_fibers(args.fibers)
    if args.action == "check-cancel":
        holds, witness = check_cancellation_fibers(fibers)
        doc = {"cancellation": holds, "witness": None if witness is None else witness}
    elif args.action == "check-antisym":
        holds, witness = check_antisymmetry_fibers(fibers)
        doc = {
            "antisymmetry": holds,
            "witness": None if witness is None else {"gamma": witness[0], "a": witness[1]},
        }
    elif args.action == "subgroup-bound":
        bound, K, maximal = antisymmetry_subgroup_bound(fibers)
        doc = {"bound": bound, "K": K, "maximal_sets": [list(t) for t in maximal]}
    else:  # pragma: no cover
        raise ConfigError(f"unknown group action {args.action}")
    text = _json_text(doc)
    sys.stdout.write(text)
    if meta is not None:
        _write(out_dir, f"group_{args.action.replace('-', '_')}.json", text)
    return EXIT_OK


def _cmd_trace(args, out_dir, meta=None):
    meta = dict(meta or {})
    if args.action == "constant":
        nu = read_measure(args.nu)
        value = frostman_constant(nu, args.alpha, args.p)
        print(_fmt(value))
        return EXIT_OK
    if args.action == "sharpness":
        W = _load_w(args)
        spec = FiltrationSpec(W.m, args.depth, W.ell)
        depths = list(range(args.depths[0], args.depths[1] + 1))
        nu, G, report = build_sharpness_trace_measure(W, args.gamma, spec, seed=args.seed, depths=depths)
        rows = [
            [str(d), _fmt(c), _fmt(s), _fmt(e)]
            for d, c, s, e in zip(
                report.depths, report.frostman_constants, report.partial_sums, report.exact_l1_nu
            )
        ]
        meta.update(
            {
                "gamma": args.gamma,
                "alpha": _fmt(report.alpha),
                "derived_constant": _fmt(report.derived_constant),
                "slope": _fmt(report.slope),
            }
        )
        text = _csv(meta, ["depth", "frostman_constant", "partial_sum", "l1_nu"], rows)
        path = _write(out_dir, "trace_sharpness.csv", text)
        write_measure(out_dir / "trace_sharpness_measure.json", nu)
        print(f"alpha={_fmt(report.alpha)} slope={_fmt(report.slope)}")
        print(f"wrote {path}")
        return EXIT_OK
    nu = read_measure(args.nu)
    W = _load_w(args)
    depths = list(range(args.depths[0], args.depths[1] + 1))
    if args.action == "embed-p":
        report = trace_experiment_p(
            nu, W, alpha=args.alpha, p=args.p, trials=args.trials, seed=args.seed, depths=depths
        )
    elif args.action == "embed-l1":
        report = trace_experiment_l1(
            nu, W, alpha=args.alpha, trials=args.trials, seed=args.seed, depths=depths
        )
    else:  # pragma: no cover
        raise ConfigError(f"unknown trace action {args.action}")
    _require_finite(report.ratios, "trace ratios")
    meta.update({"alpha": args.alpha, "p": report.p, "verdict": report.verdict})
    per_trial = report.details["per_trial"]
    rows = []
    for i, d in enumerate(report.depths):
        for t in range(per_trial.shape[1]):
            rows.append([str(d), str(t), _fmt(per_trial[i, t])])
    text = _csv(meta, ["depth", "trial", "ratio"], rows)
    path = _write(out_dir, f"trace_{args.action.replace('-', '_')}.csv", text)
    print(f"verdict={report.verdict}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_cascade(args, out_dir):
    spec = FiltrationSpec(args.m, args.depth, 1)
    nu = capped_cascade_measure(spec, alpha=args.alpha, p=args.p, seed=args.seed)
    write_measure(args.out, nu)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- run config

CONFIG_KINDS = {
    "kappa",
    "check-w",
    "hls",
    "delta-counterexample",
    "main-inequality",
    "decompose",
    "frostman",
    "dimension-sharpness",
    "group-cancel",
    "group-antisym",
    "group-subgroup-bound",
    "trace-constant",
    "trace-embed-p",
    "trace-embed-l1",
    "trace-sharpness",
}

# The params keys _cmd_run reads; any other key is rejected, not ignored.
RUN_PARAMS = ("grid", "p", "q", "eps", "beta", "gamma", "alpha", "trials", "depths")

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"type": "string"},
        "filtration": {
            "type": "object",
            "additionalProperties": False,
            "required": ["m", "depth"],
            "properties": {
                "m": {"type": "integer", "minimum": 3},
                "depth": {"type": "integer", "minimum": 1},
                "ell": {"type": "integer", "minimum": 1},
            },
        },
        "w_file": {"type": "string"},
        "measure_file": {"type": "string"},
        "martingale_file": {"type": "string"},
        "fibers_file": {"type": "string"},
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {key: {} for key in RUN_PARAMS},
        },
        "seed": {"type": "integer"},
        "out": {"type": "string"},
    },
}


def _check_keys(obj, schema, where):
    """The schema's object and unknown-key rules, for use without jsonschema."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config rejected: {where} must be an object")
    for key in obj:
        if key not in schema["properties"]:
            raise ConfigError(f"config rejected: unknown key {key!r} in {where}")


def _validate_config(doc):
    try:
        import jsonschema
    except ImportError:
        _check_keys(doc, CONFIG_SCHEMA, "config")
        if "kind" not in doc:
            raise ConfigError("config must be an object with a 'kind'")
        for key in ("filtration", "params"):
            if key in doc:
                _check_keys(doc[key], CONFIG_SCHEMA["properties"][key], key)
    else:
        try:
            jsonschema.validate(doc, CONFIG_SCHEMA)
        except jsonschema.ValidationError as exc:
            where = "/".join(str(part) for part in exc.absolute_path) or "config"
            raise ConfigError(f"config rejected: {exc.message} in {where}") from exc
    if doc["kind"] not in CONFIG_KINDS:
        raise ConfigError(f"unknown experiment kind {doc['kind']!r}")


def _config_hash(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _cmd_run(args, _out_dir):
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _validate_config(doc)
    kind = doc["kind"]
    params = doc.get("params", {})
    seed = doc.get("seed", args.seed)
    out_dir = Path(doc.get("out", args.out or "."))
    meta = {"config_hash": _config_hash(doc), "kind": kind}
    filt = doc.get("filtration", {})
    ns = argparse.Namespace(
        w=doc.get("w_file"),
        f=doc.get("martingale_file"),
        measure=doc.get("measure_file"),
        nu=doc.get("measure_file"),
        fibers=doc.get("fibers_file"),
        seed=seed,
        m=filt.get("m", 3),
        ell=filt.get("ell", 1),
        depth=filt.get("depth", 8),
        grid=params.get("grid", 21),
        p=params.get("p", 2.0),
        q=params.get("q"),
        eps=params.get("eps", 0.1),
        beta=params.get("beta", 0.5),
        gamma=params.get("gamma", 0.5),
        alpha=params.get("alpha", 0.5),
        trials=params.get("trials", 20),
        depths=params.get("depths", [4, filt.get("depth", 8)]),
        sharpness=True,
    )
    if kind == "kappa":
        return _cmd_kappa(ns, out_dir, meta)
    if kind == "check-w":
        return _cmd_check_w(ns, out_dir, meta)
    if kind in ("hls", "delta-counterexample", "main-inequality"):
        ns.mode = {"hls": "hls", "delta-counterexample": "delta", "main-inequality": "main"}[kind]
        return _cmd_embed(ns, out_dir, meta)
    if kind == "decompose":
        return _cmd_decompose(ns, out_dir, meta)
    if kind == "frostman":
        ns.sharpness = False
        return _cmd_dimension(ns, out_dir, meta)
    if kind == "dimension-sharpness":
        return _cmd_dimension(ns, out_dir, meta)
    if kind in ("group-cancel", "group-antisym", "group-subgroup-bound"):
        ns.action = {
            "group-cancel": "check-cancel",
            "group-antisym": "check-antisym",
            "group-subgroup-bound": "subgroup-bound",
        }[kind]
        return _cmd_group(ns, out_dir, meta)
    if kind.startswith("trace-"):
        ns.action = kind[len("trace-") :]
        return _cmd_trace(ns, out_dir, meta)
    raise ConfigError(f"unknown experiment kind {kind!r}")  # pragma: no cover


# ---------------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="martree",
        description="m-adic tree martingale laboratory",
    )
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-w", help="write a subspace file")
    p.add_argument("--kind", choices=["zero", "delta", "span", "random"], required=True)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--out", dest="out", required=True)

    p = sub.add_parser("norm", help="evaluate one norm of a martingale file")
    p.add_argument("--f", required=True)
    p.add_argument("--name", choices=["lp", "lorentz", "weak", "besov", "h1", "lpnu"], required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--nu", type=str, default=None)

    p = sub.add_parser("check-w", help="structural conditions of a subspace")
    p.add_argument("--w", required=True)

    p = sub.add_parser("kappa", help="kappa profile, kappa'(1), dimension bound")
    p.add_argument("--w", required=True)
    p.add_argument("--grid", type=int, default=21)

    p = sub.add_parser("embed", help="embedding experiments")
    p.add_argument("--mode", choices=["hls", "delta", "main"], required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--depths", type=int, nargs=2, default=[4, 10], metavar=("LO", "HI"))
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--w", type=str, default=None)

    p = sub.add_parser("decompose", help="convex/flat forest and verification reports")
    p.add_argument("--f", required=True)
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("dimension", help="Frostman certificates and sharpness measures")
    p.add_argument("--measure", type=str, default=None)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--w", type=str, default=None)
    p.add_argument("--sharpness", action="store_true")
    p.add_argument("--depth", type=int, default=8)

    p = sub.add_parser("group", help="shift-invariant fiber conditions")
    p.add_argument("action", choices=["check-cancel", "check-antisym", "subgroup-bound"])
    p.add_argument("--fibers", required=True)

    p = sub.add_parser("trace", help="trace-embedding experiments")
    p.add_argument("action", choices=["constant", "embed-p", "embed-l1", "sharpness"])
    p.add_argument("--nu", type=str, default=None)
    p.add_argument("--w", type=str, default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=0.4)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--depths", type=int, nargs=2, default=[4, 10], metavar=("LO", "HI"))

    p = sub.add_parser("cascade", help="write a capped multiplicative cascade measure")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--out", dest="out", required=True)

    p = sub.add_parser("run", help="run a config-file experiment")
    p.add_argument("config")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    handlers = {
        "gen-w": lambda: _cmd_gen_w(args, out_dir),
        "norm": lambda: _cmd_norm(args, out_dir),
        "check-w": lambda: _cmd_check_w(args, out_dir),
        "kappa": lambda: _cmd_kappa(args, out_dir),
        "embed": lambda: _cmd_embed(args, out_dir),
        "decompose": lambda: _cmd_decompose(args, out_dir),
        "dimension": lambda: _cmd_dimension(args, out_dir),
        "group": lambda: _cmd_group(args, out_dir),
        "trace": lambda: _cmd_trace(args, out_dir),
        "cascade": lambda: _cmd_cascade(args, out_dir),
        "run": lambda: _cmd_run(args, out_dir),
    }
    try:
        return handlers[args.command]()
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
