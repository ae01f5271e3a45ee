"""Synthetic preference-learning experiment and the (alpha, lambda) sweep.

A world of artists with unit-norm tag vectors is generated; each virtual
user's score function is a fixed blend of one shared Gaussian-process
draw (RBF kernel on tags) and an individual draw (linear kernel on
tags).  Users reveal a handful of noisy observations; models are trained
over a grid of mixing/regularization values and scored by preference
RMSE and by overlap of the true and estimated top-20 rankings.

Desk-scale defaults keep the whole sweep in CI territory; the constants
of the full-scale experiment are kept alongside for manual runs.
"""

import itertools
import json
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np
from scipy.special import expit

from .client import Client
from .daemon import RemoteServer, start_server
from .errors import DegenerateGram, EngineError
from .kernels import BiasBasis, InputPoint, KernelSpec, MixedEffectConfig, kernel_matrix
from .offline import (
    Dataset,
    build_index_structures,
    merge_repeats,
    mixed_predictions,
    predictions_grid,
    solve_condensed,
)
from .server import ServerEngine

_F64 = np.float64

GRAM_JITTER = 1e-10


@dataclass
class SynthConfig:
    """Knobs of the synthetic world; defaults are the desk scale."""

    num_artists: int = 50
    tag_dim: int = 19
    num_users: int = 100
    samples_per_user: int = 5
    noise_sd: float = 0.01
    mix_shared: float = 0.25
    mix_individual: float = 0.75
    seed: int = 0


DESK_SCALE = SynthConfig()
# full-scale constants of the original experiment (manual runs only)
FULL_SCALE = SynthConfig(num_artists=489, num_users=3000)
DESK_ALPHA_GRID = np.linspace(0.0, 1.0, 8)
DESK_LAMBDA_GRID = np.logspace(-7.0, 0.0, 8)
FULL_ALPHA_GRID = np.linspace(0.0, 1.0, 15)
FULL_LAMBDA_GRID = np.logspace(-7.0, 0.0, 15)


@dataclass
class World:
    cfg: SynthConfig
    names: list
    inputs: list
    tags: np.ndarray
    f_true: np.ndarray
    s_true: np.ndarray
    ds: Dataset


def squash(f):
    """Map a score to a (0, 1) preference."""
    return expit(np.asarray(f, dtype=_F64) / 2.0)


def load_tag_file(path):
    """Read artists from a UTF-8 tag file.

    One artist per line: name, then the tag values, tab-separated.
    Returns (names, tags) with unnormalized rows.
    """
    names, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ValueError("%s:%d: need name plus tag values" % (path, lineno))
            names.append(parts[0])
            try:
                rows.append([float(p) for p in parts[1:]])
            except ValueError as exc:
                raise ValueError("%s:%d: %s" % (path, lineno, exc)) from None
            if len(rows[-1]) != len(rows[0]):
                raise ValueError("%s:%d: inconsistent tag count" % (path, lineno))
    return names, np.asarray(rows, dtype=_F64)


def _sample_gp(chol, rng, count=None):
    if count is None:
        return chol @ rng.standard_normal(chol.shape[0])
    return (chol @ rng.standard_normal((chol.shape[0], count))).T


def generate_world(cfg, tag_source=None):
    """Draw a world from a SynthConfig.

    tag_source optionally supplies (names, tags) from load_tag_file; the
    rows are unit-normalized and override num_artists/tag_dim.  Draw
    order (tags, shared draw, individual draws, then per-user sample
    indices and noises) is fixed, so a seed pins the world bit for bit.
    """
    rng = np.random.default_rng(cfg.seed)
    if tag_source is not None:
        names, tags = tag_source
        names = list(names)
        tags = np.asarray(tags, dtype=_F64).copy()
    else:
        names = ["artist-%04d" % i for i in range(cfg.num_artists)]
        tags = rng.random((cfg.num_artists, cfg.tag_dim))
    norms = np.linalg.norm(tags, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("artist with all-zero tags cannot be normalized")
    tags /= norms[:, None]
    inputs = [
        InputPoint(name.encode("utf-8"), tags[i]) for i, name in enumerate(names)
    ]
    nart = len(inputs)

    kbar = kernel_matrix(inputs, inputs, KernelSpec.rbf_tags())
    ktil = kernel_matrix(inputs, inputs, KernelSpec.linear_tags())
    jit = GRAM_JITTER * np.eye(nart)
    try:
        chol_bar = np.linalg.cholesky(kbar + jit)
        chol_til = np.linalg.cholesky(ktil + jit)
    except np.linalg.LinAlgError as exc:
        raise DegenerateGram("world Gram factorization failed: %s" % exc) from exc

    f_bar = _sample_gp(chol_bar, rng)
    f_til = _sample_gp(chol_til, rng, cfg.num_users)
    f_true = cfg.mix_shared * f_bar[None, :] + cfg.mix_individual * f_til

    ds = Dataset()
    for j in range(cfg.num_users):
        idx = rng.integers(0, nart, size=cfg.samples_per_user)
        noise = rng.normal(0.0, cfg.noise_sd, size=cfg.samples_per_user) \
            if cfg.noise_sd > 0 else np.zeros(cfg.samples_per_user)
        for i, eps in zip(idx, noise):
            ds.add(j, inputs[int(i)], f_true[j, int(i)] + eps, 1.0)
    return World(
        cfg=cfg,
        names=names,
        inputs=inputs,
        tags=tags,
        f_true=f_true,
        s_true=squash(f_true),
        ds=ds,
    )


# ===== metrics ===========================================================


def rmse(s_true, s_est):
    """Root mean squared preference error over all (user, artist) pairs."""
    s_true = np.asarray(s_true, dtype=_F64)
    s_est = np.asarray(s_est, dtype=_F64)
    if s_true.shape != s_est.shape:
        raise ValueError("shape mismatch %r vs %r" % (s_true.shape, s_est.shape))
    return float(np.sqrt(np.mean((s_true - s_est) ** 2)))


def top_k(scores, k):
    """Indices of the k largest scores; ties break toward lower index."""
    scores = np.asarray(scores, dtype=_F64)
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    return order[:k]


def top_k_hits(s_true, s_est, k=20):
    """Per-user overlap of true and estimated top-k sets, plus its mean."""
    s_true = np.asarray(s_true, dtype=_F64)
    s_est = np.asarray(s_est, dtype=_F64)
    if s_true.shape != s_est.shape:
        raise ValueError("shape mismatch %r vs %r" % (s_true.shape, s_est.shape))
    if s_true.shape[1] < k:
        raise ValueError("need at least %d items, got %d" % (k, s_true.shape[1]))
    hits = np.empty(s_true.shape[0], dtype=np.intp)
    for j in range(s_true.shape[0]):
        hits[j] = len(
            set(top_k(s_true[j], k).tolist()) & set(top_k(s_est[j], k).tolist())
        )
    return hits, float(np.mean(hits)) if hits.size else float("nan")


# ===== sweep =============================================================


@dataclass
class CellResult:
    alpha: float
    lam: float
    ok: bool
    rmse: float = float("nan")
    top20hits: float = float("nan")
    hits_per_user: Optional[np.ndarray] = None
    error: str = ""


@dataclass
class SweepResult:
    mode: str
    k: int
    names: list
    alphas: np.ndarray
    lambdas: np.ndarray
    cells: list = field(default_factory=list)
    best_index: Optional[tuple] = None
    best_top_true: Optional[np.ndarray] = None
    best_top_est: Optional[np.ndarray] = None

    def cell(self, i_alpha, i_lam):
        return self.cells[i_alpha * len(self.lambdas) + i_lam]

    def best_cell(self):
        if self.best_index is None:
            return None
        return self.cell(*self.best_index)


def _model_config(alpha, lam, bias):
    return MixedEffectConfig(
        alpha=alpha,
        lam=lam,
        shared=KernelSpec.rbf_tags(),
        individual=KernelSpec.linear_tags(),
        bias=bias,
    )


def _estimate_offline(world, mcfg):
    coeffs = solve_condensed(world.ds, mcfg)
    ms = build_index_structures(merge_repeats(world.ds))
    tasks = list(range(world.cfg.num_users))
    return predictions_grid(coeffs, mcfg, ms, tasks, world.inputs)


def _estimate_via_daemon(world, mcfg):
    """Same estimates, but through a live daemon over TCP: every user's
    model is read from it, and the models, all of one epoch, are scored
    in one predictor call, as offline's are."""
    m = world.cfg.num_users
    tokens = {j: b"user-%d" % j for j in range(m)}
    engine = ServerEngine(mcfg)
    srv = start_server(engine, ("127.0.0.1", 0), tokens)
    try:
        by_task = {}
        for tr in world.ds.triples:
            by_task.setdefault(tr.task, []).append(tr)
        with RemoteServer(srv.address) as conn:
            wire_cfg = conn.get_config()
            # interleave submissions round-robin across users
            pending = [list(v) for v in by_task.values()]
            while any(pending):
                for lst in pending:
                    if lst:
                        tr = lst.pop(0)
                        conn.submit(tr.x, tr.y, tr.w,
                                    task=tr.task, token=tokens[tr.task])
            models = []
            for j in range(m):
                conn.token = tokens[j]
                models.append(Client(j, wire_cfg).active_refresh(conn))
    finally:
        srv.shutdown()
        srv.server_close()
    # the models of one epoch share the pool, a_cond and b they were read with
    one = models[0]
    if any(model.epoch != one.epoch for model in models):
        raise RuntimeError("user models read at more than one epoch")
    own = [(model.task, model.a_task, model.slots) for model in models]
    return mixed_predictions(wire_cfg, one.inputs, one.a_cond, one.b, own, world.inputs)


def sweep(world, alphas, lambdas, mode="offline", k=20, bias=None):
    """Train and score a model per (alpha, lambda) grid point.

    mode "offline" fits with the condensed batch solver;
    "client-server" pushes every observation through a live daemon and
    reads each user's model from it.  Either way a cell scores all its
    users in one predictor call (offline.mixed_predictions).  Failed
    cells are marked, not fatal.
    """
    if mode not in ("offline", "client-server"):
        raise ValueError("unknown mode %r" % (mode,))
    bias = bias if bias is not None else BiasBasis.empty()
    alphas = np.asarray(alphas, dtype=_F64)
    lambdas = np.asarray(lambdas, dtype=_F64)
    result = SweepResult(
        mode=mode, k=k, names=list(world.names), alphas=alphas, lambdas=lambdas
    )
    best = None
    for ia, alpha in enumerate(alphas):
        for il, lam in enumerate(lambdas):
            try:
                mcfg = _model_config(alpha, lam, bias)
                est = (
                    _estimate_offline(world, mcfg)
                    if mode == "offline"
                    else _estimate_via_daemon(world, mcfg)
                )
                s_est = squash(est)
                hits, mean_hits = top_k_hits(world.s_true, s_est, k)
                cell = CellResult(
                    alpha=float(alpha),
                    lam=float(lam),
                    ok=True,
                    rmse=rmse(world.s_true, s_est),
                    top20hits=mean_hits,
                    hits_per_user=hits,
                )
                if best is None or cell.rmse < best[0]:
                    best = (cell.rmse, (ia, il), s_est)
            except (EngineError, ValueError) as exc:
                cell = CellResult(
                    alpha=float(alpha), lam=float(lam), ok=False, error=str(exc)
                )
            result.cells.append(cell)
    if best is not None:
        _, idx, s_est = best
        result.best_index = idx
        result.best_top_true = np.vstack(
            [top_k(world.s_true[j], k) for j in range(s_est.shape[0])]
        )
        result.best_top_est = np.vstack(
            [top_k(s_est[j], k) for j in range(s_est.shape[0])]
        )
    return result


# ===== persistence and reports ===========================================


def _json_default(obj):
    # numpy arrays and integers, which json cannot encode itself
    return obj.tolist()


def save_result(result, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(result), fh, indent=1, allow_nan=True,
                  default=_json_default)
        fh.write("\n")


def _from_doc(cls, doc, **converted):
    """cls from the doc's value per field, apart from the converted ones."""
    plain = {f.name: doc[f.name] for f in fields(cls)
             if f.name not in converted}
    return cls(**plain, **converted)


def _number(x):
    return float("nan") if x is None else x


def _indices(v):
    return None if v is None else np.asarray(v, dtype=np.intp)


def load_result(path):
    """The SweepResult saved at path; a document that is not one raises
    ValueError("<path> is not a saved sweep result: ...")."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        cells = [
            _from_doc(CellResult, c, rmse=_number(c["rmse"]),
                      top20hits=_number(c["top20hits"]),
                      hits_per_user=_indices(c["hits_per_user"]))
            for c in doc["cells"]
        ]
        best = doc["best_index"]
        return _from_doc(
            SweepResult, doc, cells=cells,
            alphas=np.asarray(doc["alphas"], dtype=_F64),
            lambdas=np.asarray(doc["lambdas"], dtype=_F64),
            best_index=None if best is None else tuple(best),
            best_top_true=_indices(doc["best_top_true"]),
            best_top_est=_indices(doc["best_top_est"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("%s is not a saved sweep result: %r" % (path, exc)) from exc


def _fmt(x):
    # shortest decimal that round-trips a float64
    return repr(float(x))


def write_tsv(path, header, rows):
    """Write tab-separated rows of str fields; header None writes none."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows if header is None else itertools.chain([header], rows):
            fh.write("\t".join(row) + "\n")
    return path


def _grid_row(c):
    status = "ok" if c.ok else "failed: " + c.error.replace("\t", " ").replace("\n", " ")
    return _fmt(c.alpha), _fmt(c.lam), _fmt(c.rmse), _fmt(c.top20hits), status


def _topk_rows(result):
    if result.best_top_true is None:
        return
    for j, (true_row, est_row) in enumerate(
            zip(result.best_top_true, result.best_top_est)):
        true_set = set(true_row.tolist())
        for r in range(result.k):
            ei = int(est_row[r])
            yield ("%d" % j, "%d" % (r + 1), result.names[int(true_row[r])],
                   result.names[ei], "*" if ei in true_set else "")


def emit_report(result, out_dir):
    """Write the delimited report files; byte-deterministic per result.

    grid_metrics.tsv: one row per grid cell.
    hits_histogram.tsv: hits distribution at the best-RMSE cell.
    user_topk.tsv: per-user true/estimated top-k with overlap marks.
    Returns the written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    best = result.best_cell()
    counts = []
    if best is not None and best.hits_per_user is not None:
        counts = np.bincount(best.hits_per_user, minlength=result.k + 1)
    return [
        write_tsv(os.path.join(out_dir, "grid_metrics.tsv"),
                  ("alpha", "lambda", "rmse", "top20hits", "status"),
                  map(_grid_row, result.cells)),
        write_tsv(os.path.join(out_dir, "hits_histogram.tsv"), ("hits", "users"),
                  (("%d" % h, "%d" % cnt) for h, cnt in enumerate(counts))),
        write_tsv(os.path.join(out_dir, "user_topk.tsv"),
                  ("user", "rank", "true_artist", "est_artist", "hit"),
                  _topk_rows(result)),
    ]
