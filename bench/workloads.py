"""The benchmark's three workloads: inputs from a seed, step lists, checks.

Each workload is a fixed list of steps.  A step is one library call or one
in-process ``martree run <config>``; it is timed alone, then checked against
known answers and hashed.  Library steps hash their result fields (scalars
rendered with ``.17g``, arrays as their little-endian float64/int bytes,
which carry the same bits); CLI steps hash their stdout and every file they
wrote.  Inputs are written under the current directory, with relative paths,
so config hashes and digests do not depend on where the checkout lives.

Why these workloads:

- ``forest``: one deep W-martingale held in memory.  ``decomp`` does almost
  all the work, including its trees x leaves loops; ``dimension``,
  ``fileio`` and ``cli`` stay idle.
- ``certify``: extremal measures written by ``dimension-sharpness`` and read
  back by ``frostman`` certificates on both sides of the dimension bound.
  The antichain DP dominates, ``spacew`` is used in bulk (one
  ``SubspaceW.distance`` per lifted block) and ``fileio`` moves large files;
  ``decomp`` stays idle.
- ``configs``: one ``martree run`` per config kind at moderate sizes, as a
  researcher's batch looks.  ``kappa`` and ``spacew`` project single blocks
  inside optimizers, and ``riesz``, ``trace``, ``groupfourier`` and the CLI
  overhead only run here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import martree.cli as cli
from martree import decomp, fileio, groupfourier, kappa, norms, spacew, trace
from martree.filtration import FiltrationSpec, Martingale, TreeMeasure

# Closed forms for the fixed subspaces (criterion 02 of the acceptance suite):
# the delta subspace has kappa'(1) = -log 3, the span subspace -2 log 2 / 3.
DELTA_BOUND = 0.0
SPAN_BOUND = 1.0 - 2.0 * math.log(2.0) / (3.0 * math.log(3.0))
BETA_OFFSET = 0.05


@dataclass
class Step:
    """One timed call plus the check of its result.

    ``check(result)`` returns the list of failed known-answer checks and the
    sha256 hex digest of the step's output.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], str]]


# ---------------------------------------------------------------- digests


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        if obj.dtype == object:
            h.update(f"O{obj.shape};".encode())
            for item in obj.ravel():
                _feed(h, item)
            return
        arr = np.ascontiguousarray(obj, dtype=obj.dtype.newbyteorder("<"))
        h.update(f"A{arr.dtype.str}{arr.shape};".encode())
        h.update(arr.tobytes())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T;" if obj else b"F;")
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)};".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"f{format(float(obj), '.17g')};".encode())
    elif isinstance(obj, complex):
        h.update(f"c{format(obj.real, '.17g')},{format(obj.imag, '.17g')};".encode())
    elif isinstance(obj, str):
        h.update(f"s{len(obj)}:{obj};".encode())
    elif obj is None:
        h.update(b"N;")
    elif dataclasses.is_dataclass(obj):
        h.update(f"D{type(obj).__name__}{{".encode())
        for f in dataclasses.fields(obj):
            h.update(f"{f.name}=".encode())
            _feed(h, getattr(obj, f.name))
        h.update(b"}")
    elif isinstance(obj, dict):
        h.update(f"M{len(obj)}{{".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(f"L{len(obj)}[".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif type(obj).__module__.startswith("martree."):
        h.update(f"C{type(obj).__name__}".encode())
        _feed(h, vars(obj))
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj) -> str:
    """sha256 of a result: floats as .17g text, arrays as their raw bytes."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def files_digest(stdout: str, out_dir: Path) -> str:
    """sha256 of a CLI step's stdout followed by every file it wrote."""
    h = hashlib.sha256()
    h.update(stdout.encode())
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(f"\0{path.relative_to(out_dir).as_posix()}\0".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- helpers


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _csv_meta(path: Path) -> dict[str, str]:
    meta = {}
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition("=")
        meta[key] = value
    return meta


def _csv_rows(path: Path) -> list[dict[str, str]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _quantities(path: Path) -> dict[str, str]:
    return {row["quantity"]: row["value"] for row in _csv_rows(path)}


def _lib_step(name, call, known=lambda r: []) -> Step:
    return Step(name, call, lambda r: (known(r), digest(r)))


def _cli_step(name: str, known=lambda out, stdout: []) -> Step:
    """``martree run in/<name>.json``; the config sends outputs to out/<name>.

    The program's own seeds keep their defaults: it receives only the inputs.
    """
    out = Path("out") / name

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["run", f"in/{name}.json"])
        return code, buf.getvalue()

    def check(result):
        code, stdout = result
        if code != 0:
            return [f"exit code {code}"], files_digest(stdout, out)
        return known(out, stdout), files_digest(stdout, out)

    return Step(name, call, check)


def _config(name: str, doc: dict) -> None:
    """Write in/<name>.json, a config that sends its outputs to out/<name>."""
    Path(f"in/{name}.json").write_text(json.dumps(dict(doc, out=f"out/{name}"), indent=1, sort_keys=True) + "\n")


def _span_w(m: int, i: int, j: int) -> spacew.SubspaceW:
    v = np.zeros(m)
    v[i], v[j] = 1.0, -1.0
    return spacew.SubspaceW.from_blocks([np.outer(v, [1.0])], m, 1)


def _delta_w(m: int, j: int) -> spacew.SubspaceW:
    return spacew.SubspaceW.from_blocks([np.outer(spacew.delta_vector(m, j), [1.0])], m, 1)


# Random inputs are drawn from fixed seeds, and the workload seed relabels
# them: one permutation of the child labels, applied at every level of the
# tree, and one rotation of R^ell.  Every quantity the package computes is
# invariant under both (the flat forest maps onto an isomorphic one, and a
# relabeled orthonormal basis keeps the optimizers' coefficient coordinates),
# so each seed gives new input bytes but the same work.  Inputs drawn from
# the workload seed itself would change the work between seeds: whether a
# few atoms near the root are flat decides the size of the largest trees,
# and the optimizers' iteration counts follow their start points.
BASE_SEED = 20181120


@dataclass
class Relabeling:
    perm: np.ndarray
    rotation: np.ndarray

    @classmethod
    def draw(cls, rng: np.random.Generator, m: int, ell: int) -> "Relabeling":
        rotation, _ = np.linalg.qr(rng.standard_normal((ell, ell)))
        return cls(rng.permutation(m), rotation)

    def atoms(self, level: int) -> np.ndarray:
        """For each relabeled atom of a level, the index of the original atom."""
        idx = np.zeros(1, dtype=np.int64)
        for _ in range(level):
            idx = (idx[:, None] * self.perm.size + self.perm[None, :]).ravel()
        return idx

    def subspace(self, W: spacew.SubspaceW) -> spacew.SubspaceW:
        return spacew.SubspaceW(W.m, W.ell, W.basis[:, self.perm, :] @ self.rotation)

    def martingale(self, F: Martingale) -> Martingale:
        diffs = [F.diffs[n][self.atoms(n)][:, self.perm, :] @ self.rotation for n in range(F.spec.depth)]
        return Martingale(F.spec, F.f0 @ self.rotation, diffs, validate=False)

    def measure(self, mu: TreeMeasure) -> TreeMeasure:
        return TreeMeasure(mu.spec, mu.leaf_mass[self.atoms(mu.spec.depth)])


def _random_w_and_martingale(spec: FiltrationSpec, k: int, relabeling: Relabeling):
    W = spacew.SubspaceW.random(spec.m, spec.ell, k, seed=BASE_SEED)
    F = spacew.random_w_martingale(W, spec, seed=BASE_SEED)
    return relabeling.subspace(W), relabeling.martingale(F)


# ---------------------------------------------------------------- forest


FOREST_DEPTH = {"full": 12, "small": 6}


def _forest_setup(seed: int, scale: str) -> dict:
    relabeling = Relabeling.draw(np.random.default_rng(seed), 3, 2)
    W, F = _random_w_and_martingale(FiltrationSpec(3, FOREST_DEPTH[scale], 2), 3, relabeling)
    return {"W": W, "F": F}


def _forest_steps(inputs: dict) -> list[Step]:
    W, F = inputs["W"], inputs["F"]
    state: dict = {}

    def classify():
        state["forest"] = decomp.classify_atoms(F, 0.1)
        return state["forest"]

    def classify_known(forest):
        n_flat = sum(int((~mask).sum()) for mask in forest.convex)
        members = sum(len(v) for t in forest.trees for v in t.members.values())
        return [] if members == n_flat else [f"trees hold {members} atoms, {n_flat} are flat"]

    def split_known(parts):
        co, fl = parts
        exact = all(np.array_equal(a + b, c) for a, b, c in zip(co.diffs, fl.diffs, F.diffs))
        return [] if exact else ["convex + flat parts do not sum to F"]

    def stepwise():
        state["stepwise"] = decomp.verify_stepwise_identity(F)
        return state["stepwise"]

    def stepwise_known(r):
        problems = []
        if not abs(r.identity_gap) <= 1e-9 * max(1.0, r.final_l1):
            problems.append(f"stepwise identity gap {r.identity_gap:.3e}")
        if not r.min_atom_increment >= -1e-12:
            problems.append(f"negative atom increment {r.min_atom_increment:.3e}")
        return problems

    def convex():
        state["convex"] = decomp.verify_convex_lemma(F, state["forest"])
        return state["convex"]

    def convex_known(r):
        return [] if r.holds and r.constant == 21.0 else ["convex lemma fails"]

    def kappa_step():
        state["kappa"] = kappa.kappa_of(W, 0.5)
        return state["kappa"]

    def kappa_known(w):
        return [] if w.residual <= 1e-10 else [f"kappa witness residual {w.residual:.3e}"]

    def tree_sum_known(r):
        ok = _finite(r.max_lorentz_ratio, r.max_stopping_ratio) and len(r.per_tree) == len(state["forest"].trees)
        return [] if ok else ["tree summation report incomplete or not finite"]

    def growth_known(r):
        ok = _finite(r.max_ratio) and r.alpha == state["kappa"].value + 0.1
        return [] if ok else ["flat-tree growth report inconsistent"]

    def besov_known(b):
        # the convex part's Besov sum is part of F's
        ok = b >= state["convex"].besov_co * (1 - 1e-12)
        return [] if ok else [f"besov {b} below its convex part"]

    def h1_known(h):
        # the maximal function dominates |F_N|
        ok = h >= state["stepwise"].final_l1 * (1 - 1e-12)
        return [] if ok else [f"h1 {h} below E|F_N|"]

    return [
        _lib_step("classify_atoms", classify, classify_known),
        _lib_step("split_convex_flat", lambda: decomp.split_convex_flat(F, state["forest"]), split_known),
        _lib_step("verify_stepwise_identity", stepwise, stepwise_known),
        _lib_step("verify_convex_lemma", convex, convex_known),
        _lib_step("verify_tree_summation", lambda: decomp.verify_tree_summation(F, state["forest"], 2.0),
                  tree_sum_known),
        _lib_step("kappa_of", kappa_step, kappa_known),
        _lib_step(
            "verify_flat_tree_growth",
            lambda: decomp.verify_flat_tree_growth(F, state["forest"], 2.0, state["kappa"].value, 0.1),
            growth_known,
        ),
        _lib_step("besov_norm", lambda: norms.besov_norm(F, 0.0, 1.0), besov_known),
        _lib_step("h1_norm", lambda: norms.h1_norm(F), h1_known),
    ]


# ---------------------------------------------------------------- certify


CERTIFY_DEPTH = {"full": 12, "small": 6}


# (subspace, dimension bound); the certificates sit at bound +- BETA_OFFSET.
CERTIFY_CASES = (("delta", DELTA_BOUND), ("span", SPAN_BOUND))


def _certify_setup(seed: int, scale: str) -> dict:
    # The seed permutes the child labels; the dimension bounds do not move.
    perm = np.random.default_rng(seed).permutation(3)
    fileio.write_subspace("in/w_delta.json", _delta_w(3, int(perm[0])))
    fileio.write_subspace("in/w_span.json", _span_w(3, int(perm[0]), int(perm[1])))
    depth = CERTIFY_DEPTH[scale]
    frostman = []
    for name, bound in CERTIFY_CASES:
        _config(
            f"sharpness_{name}",
            {
                "kind": "dimension-sharpness",
                "filtration": {"m": 3, "depth": depth, "ell": 1},
                "w_file": f"in/w_{name}.json",
            },
        )
        for side, beta in (("below", bound - BETA_OFFSET), ("above", bound + BETA_OFFSET)):
            if 0.0 <= beta <= 1.0:
                step = f"frostman_{name}_{side}"
                frostman.append((step, side))
                _config(
                    step,
                    {
                        "kind": "frostman",
                        "measure_file": f"out/sharpness_{name}/sharpness_measure.json",
                        "params": {"beta": beta, "gamma": 0.5},
                    },
                )
    return {"frostman": frostman}


def _certify_steps(inputs: dict) -> list[Step]:
    def sharpness_known(bound):
        def known(out, stdout):
            q = _quantities(out / "sharpness.csv")
            dim, got = float(q["eggleston_dimension"]), float(q["dimension_bound"])
            problems = []
            if not abs(dim - got) < 1e-6:
                problems.append(f"Eggleston dimension {dim} != bound {got}")
            if not abs(got - bound) < 1e-6:
                problems.append(f"dimension bound {got} != closed form {bound}")
            if not (out / "sharpness_measure.json").is_file():
                problems.append("no measure written")
            return problems

        return known

    def frostman_known(side):
        expected = "CERTIFIED" if side == "below" else "VIOLATED"

        def known(out, stdout):
            verdict = _csv_meta(out / "frostman.csv")["verdict"]
            return [] if verdict == expected else [f"verdict {verdict}, expected {expected}"]

        return known

    steps = [_cli_step(f"sharpness_{name}", sharpness_known(bound)) for name, bound in CERTIFY_CASES]
    steps += [_cli_step(step, frostman_known(side)) for step, side in inputs["frostman"]]
    return steps


# ---------------------------------------------------------------- configs


CONFIGS_SIZES = {
    "full": {"kappa_grid": 11, "embed_depth": 10, "hls_depth": 8, "trials": 10, "mart_depth": 10,
             "cascade_depth": 10, "sharp_depth": 12, "dim_depth": 8, "delta_depth": 12},
    "small": {"kappa_grid": 3, "embed_depth": 6, "hls_depth": 6, "trials": 3, "mart_depth": 5,
              "cascade_depth": 6, "sharp_depth": 6, "dim_depth": 5, "delta_depth": 8},
}

# (m, ell, dim) of the random subspaces given to check-w and kappa.
RANDOM_W_SHAPES = ((3, 2, 2), (3, 3, 3), (4, 2, 3), (4, 3, 3), (5, 2, 3), (5, 3, 4))
CASCADE_ALPHA = 0.9


def _z5_fibers(rng: np.random.Generator) -> groupfourier.FiberFamily:
    """A Z_5 fiber family with nonzero fibers at gamma = u and 2u.

    The unit u of Z_5 is drawn; multiplying by a unit is a group
    automorphism, so every draw gives the same structure, relabeled.
    """
    group = groupfourier.FiniteAbelianGroup.cyclic(5)
    u = int(rng.integers(1, 5))
    present = {u, 2 * u % 5}
    fibers = {}
    for gamma in range(1, 5):
        if gamma in present:
            z = complex(rng.standard_normal(), rng.standard_normal())
            fibers[gamma] = np.array([[z / abs(z)]])
        else:
            fibers[gamma] = np.zeros((0, 1), dtype=complex)
    return groupfourier.FiberFamily(group=group, ell=1, fibers=fibers)


def _configs_setup(seed: int, scale: str) -> dict:
    size = CONFIGS_SIZES[scale]
    rng = np.random.default_rng(seed)
    w_names = []
    for i, (m, ell, k) in enumerate(RANDOM_W_SHAPES):
        W = spacew.SubspaceW.random(m, ell, k, seed=BASE_SEED + i)
        fileio.write_subspace(f"in/w_r{i}.json", Relabeling.draw(rng, m, ell).subspace(W))
        w_names.append(f"r{i}")
    fibers = _z5_fibers(rng)
    fileio.write_fibers("in/fibers.json", fibers)
    fileio.write_subspace("in/w_shift.json", groupfourier.build_shift_invariant_w(fibers).realify())
    w_names.append("shift")
    tree = Relabeling.draw(rng, 3, 2)
    perm = tree.perm.tolist()
    fileio.write_subspace("in/w_span.json", _span_w(3, perm[0], perm[1]))
    fileio.write_subspace("in/w_delta.json", _delta_w(3, perm[2]))
    _, F = _random_w_and_martingale(FiltrationSpec(3, size["mart_depth"], 2), 2, tree)
    fileio.write_martingale("in/martingale.json", F)
    cascade = trace.capped_cascade_measure(
        FiltrationSpec(3, size["cascade_depth"], 1), alpha=CASCADE_ALPHA, p=1.0, seed=BASE_SEED
    )
    fileio.write_measure("in/cascade.json", tree.measure(cascade))

    for name in w_names:
        _config(f"check_w_{name}", {"kind": "check-w", "w_file": f"in/w_{name}.json"})
        _config(f"kappa_{name}", {"kind": "kappa", "w_file": f"in/w_{name}.json",
                                  "params": {"grid": size["kappa_grid"]}})
    for kind in ("group-cancel", "group-antisym", "group-subgroup-bound"):
        _config(kind.replace("-", "_"), {"kind": kind, "fibers_file": "in/fibers.json"})
    ed, trials = size["embed_depth"], size["trials"]
    _config("hls", {"kind": "hls", "filtration": {"m": 3, "depth": size["hls_depth"], "ell": 2},
                    "params": {"p": 2.0, "q": 4.0, "trials": trials, "depths": [4, size["hls_depth"]]}})
    _config("main_inequality", {"kind": "main-inequality", "filtration": {"m": 3, "depth": ed, "ell": 2},
                                "w_file": "in/w_r0.json",
                                "params": {"p": 2.0, "trials": trials, "depths": [4, ed]}})
    _config("delta_counterexample", {"kind": "delta-counterexample",
                                     "filtration": {"m": 3, "depth": size["delta_depth"], "ell": 1},
                                     "params": {"p": 2.0, "depths": [4, size["delta_depth"]]}})
    _config("decompose", {"kind": "decompose", "martingale_file": "in/martingale.json",
                          "params": {"eps": 0.1}})
    cd = size["cascade_depth"]
    _config("frostman_cascade", {"kind": "frostman", "measure_file": "in/cascade.json",
                                 "params": {"beta": 1.0 - CASCADE_ALPHA, "gamma": 1.0}})
    _config("trace_constant", {"kind": "trace-constant", "measure_file": "in/cascade.json",
                               "params": {"alpha": CASCADE_ALPHA, "p": 1.0}})
    _config("trace_embed_p", {"kind": "trace-embed-p", "measure_file": "in/cascade.json",
                              "w_file": "in/w_r0.json",
                              "params": {"alpha": CASCADE_ALPHA, "p": 2.0, "trials": trials,
                                         "depths": [4, cd]}})
    _config("trace_embed_l1", {"kind": "trace-embed-l1", "measure_file": "in/cascade.json",
                               "w_file": "in/w_span.json",
                               "params": {"alpha": CASCADE_ALPHA, "trials": 2 * trials,
                                          "depths": [4, cd]}})
    sd = size["sharp_depth"]
    _config("trace_sharpness", {"kind": "trace-sharpness", "filtration": {"m": 3, "depth": sd, "ell": 1},
                                "w_file": "in/w_delta.json",
                                "params": {"gamma": 0.4, "depths": [4, sd]}})
    _config("dimension_sharpness", {"kind": "dimension-sharpness",
                                    "filtration": {"m": 3, "depth": size["dim_depth"], "ell": 1},
                                    "w_file": "in/w_span.json"})
    return {"w_names": w_names}


def _configs_steps(inputs: dict) -> list[Step]:
    def kappa_known(out, stdout):
        rows = _csv_rows(out / "kappa.csv")
        worst = max(float(r["residual"]) for r in rows)
        bound = float(_csv_meta(out / "kappa.csv")["dimension_bound"])
        problems = [] if worst <= 1e-10 else [f"kappa witness residual {worst:.3e}"]
        if not 0.0 <= bound <= 1.0:
            problems.append(f"dimension bound {bound} outside [0, 1]")
        return problems

    def cancel_known(out, stdout):
        # As in criterion 03 of tests/test_acceptance.py: cancellation of the
        # fibers is the second structural condition of the realified subspace.
        cancel = json.loads((out / "group_check_cancel.json").read_text())["cancellation"]
        second = json.loads(Path("out/check_w_shift/check_w.json").read_text())["second_condition"]
        return [] if cancel == second else [f"cancellation {cancel} but second condition {second}"]

    def verdict_is(expected, name):
        def known(out, stdout):
            verdict = _csv_meta(out / name)["verdict"]
            return [] if verdict == expected else [f"verdict {verdict}, expected {expected}"]

        return known

    def decompose_known(out, stdout):
        q = _quantities(out / "decompose.csv")
        problems = []
        if not abs(float(q["identity_gap"])) <= 1e-9 * max(1.0, float(q["final_l1"])):
            problems.append(f"stepwise identity gap {q['identity_gap']}")
        if q["convex_lemma_holds"] != "True":
            problems.append("convex lemma fails")
        return problems

    def constant_known(out, stdout):
        # the capped cascade has Frostman constant at most 1 by construction
        value = float(stdout)
        return [] if value <= 1.0 + 1e-12 else [f"Frostman constant {value} above the cap"]

    def trace_sharpness_known(out, stdout):
        alpha = float(_csv_meta(out / "trace_sharpness.csv")["alpha"])
        return [] if abs(alpha - 0.6) < 1e-9 else [f"alpha {alpha}, expected 0.6"]

    def dimension_known(out, stdout):
        q = _quantities(out / "sharpness.csv")
        dim, bound = float(q["eggleston_dimension"]), float(q["dimension_bound"])
        return [] if abs(dim - bound) < 1e-6 else [f"Eggleston dimension {dim} != bound {bound}"]

    steps = [_cli_step(f"check_w_{name}") for name in inputs["w_names"]]
    steps += [_cli_step(f"kappa_{name}", kappa_known) for name in inputs["w_names"]]
    steps += [
        _cli_step("group_cancel", cancel_known),
        _cli_step("group_antisym"),
        _cli_step("group_subgroup_bound"),
        _cli_step("hls", verdict_is("BOUNDED", "embed_hls.csv")),
        _cli_step("main_inequality"),
        _cli_step("delta_counterexample", verdict_is("GROWING", "embed_delta.csv")),
        _cli_step("decompose", decompose_known),
        _cli_step("frostman_cascade", verdict_is("CERTIFIED", "frostman.csv")),
        _cli_step("trace_constant", constant_known),
        _cli_step("trace_embed_p"),
        _cli_step("trace_embed_l1", verdict_is("BOUNDED", "trace_embed_l1.csv")),
        _cli_step("trace_sharpness", trace_sharpness_known),
        _cli_step("dimension_sharpness", dimension_known),
    ]
    return steps


# ---------------------------------------------------------------- entry points


def setup(workload: str, seed: int, scale: str) -> dict:
    """Generate the workload's inputs from the seed; files go under ./in."""
    Path("in").mkdir(exist_ok=True)
    return {"forest": _forest_setup, "certify": _certify_setup, "configs": _configs_setup}[workload](
        seed, scale
    )


def steps(workload: str, inputs: dict) -> list[Step]:
    return {"forest": _forest_steps, "certify": _certify_steps, "configs": _configs_steps}[workload](inputs)
