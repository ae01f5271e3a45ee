"""Batch solvers for the mixed-effect regression problem.

Three routes to the same coefficients, kept deliberately independent so
they can check each other:

* solve_full_system: assembles the full regularized kernel system over
  all raw observations and solves it densely (numpy's LAPACK dgesv,
  refined).  Slowest, most direct; serves as the oracle.
* solve_backfit: eliminates the bias coefficients first, then solves for
  the kernel coefficients with the same dense solve.
* solve_condensed: the production path.  Collapses repeated
  (task, input) observations with the server's merge, in arrival order,
  builds each task's inverse, the factors of the unique inputs, y_cond
  and a dense H, then makes the server's one shared solve
  (server.shared_coefficients): cubic per task and in the pool.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import SingularSystem, UnknownTask
from .kernels import (
    InputPoint,
    Pool,
    basis_matrix,
    check_observation,
    eval_kernel,
    kernel_matrix,
    kernel_row,
    merge_observation,
    operand,
)
from .linalg import FactorSet, SymMatrix
from .server import shared_coefficients

_F64 = np.float64


class Triple(NamedTuple):
    task: int
    x: InputPoint
    y: float
    w: float


class Dataset:
    """Flat list of (task, input, y, w) observations."""

    __slots__ = ("triples",)

    def __init__(self, triples=()):
        self.triples = []
        for t in triples:
            self.add(*t)

    def add(self, task, x, y, w):
        self.triples.append(Triple(int(task), x, *check_observation(y, w)))

    def __len__(self):
        return len(self.triples)

    @property
    def tasks(self):
        seen = {}
        for t in self.triples:
            seen.setdefault(t.task, None)
        return list(seen)


@dataclass
class IndexStructures:
    """Unique-input bookkeeping for a dataset.

    unique_inputs is a Pool, ordered by first appearance.  task_rows[j]
    indexes the flat triple list, task_slots[j] maps each of task j's
    triples to its unique input (repeats possible until the dataset is
    merged).
    """

    unique_inputs: Pool
    task_rows: dict
    task_slots: dict


def build_index_structures(ds):
    unique = Pool()
    rows, slots = {}, {}
    for i, tr in enumerate(ds.triples):
        s = unique.slot(tr.x.key)
        if s is None:
            s = len(unique)
            unique.append(tr.x)
        rows.setdefault(tr.task, []).append(i)
        slots.setdefault(tr.task, []).append(s)
    return IndexStructures(
        unique_inputs=unique,
        task_rows={j: np.asarray(v, dtype=np.intp) for j, v in rows.items()},
        task_slots={j: np.asarray(v, dtype=np.intp) for j, v in slots.items()},
    )


def merge_repeats(ds):
    """Collapse repeated (task, input) observations into single triples.

    Repeats fold in arrival order through kernels.merge_observation, the
    server's merge, so the merged (y, w) equal the stream's bit for bit;
    predictions of the solved model are unchanged by this collapse.
    """
    acc = {}
    for tr in ds.triples:
        k = (tr.task, tr.x.key)
        held = acc.get(k)
        if held is not None:
            tr = Triple(tr.task, held.x, *merge_observation(held.y, held.w, tr.y, tr.w))
        acc[k] = tr
    return Dataset(acc.values())


@dataclass
class ModelCoefficients:
    """Solved coefficients in condensed form, with the inputs they live on.

    inputs is the Pool of the merged dataset's unique inputs; a_cond
    lives on them (group-sum of the raw kernel coefficients), b on the
    bias basis, a_task[j] on the unique inputs of task j as listed by
    task_slots[j].  a_raw is populated only by the dense routes, for
    diagnostics.
    """

    inputs: Pool
    a_cond: np.ndarray
    b: np.ndarray
    a_task: dict
    task_slots: dict
    a_raw: Optional[np.ndarray] = field(default=None, repr=False)


# ===== dense assembly (oracle side) ======================================


def _assemble_dense(ds, cfg):
    xs = [t.x for t in ds.triples]
    K = cfg.alpha * kernel_matrix(xs, xs, cfg.shared)
    tasks = np.array([t.task for t in ds.triples], dtype=np.int64)
    for j in ds.tasks:
        rows = np.flatnonzero(tasks == j)
        xj = [xs[i] for i in rows]
        kj = kernel_matrix(xj, xj, cfg.individual_for(j))
        K[np.ix_(rows, rows)] += (1.0 - cfg.alpha) * kj
    y = np.array([t.y for t in ds.triples], dtype=_F64)
    w = np.array([t.w for t in ds.triples], dtype=_F64)
    psi = basis_matrix([t.x for t in ds.triples], cfg.bias)
    return K, w, psi, y


def _refined_solve(a_mat, rhs):
    # dense solve with up to two rounds of iterative refinement to pin the
    # residual down near machine level, each step one LAPACK dgesv through
    # numpy; dgesv refuses only an exactly zero pivot, which, like a
    # non-finite step, is a singular system
    try:
        sol = np.linalg.solve(a_mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("dense solve hit an exactly zero pivot: %s" % exc) from None
    for _ in range(2):
        if not np.all(np.isfinite(sol)):
            break
        res = rhs - a_mat @ sol
        if np.max(np.abs(res)) <= 1e-12:
            break
        sol += np.linalg.solve(a_mat, res)
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("dense solve produced non-finite values")
    return sol


def _condense(ds, cfg, a_raw, b):
    """Fold raw coefficients onto the merged layout."""
    merged = merge_repeats(ds)
    ms = build_index_structures(merged)
    n = len(ms.unique_inputs)
    a_cond = np.zeros(n, dtype=_F64)
    a_task = {}
    pos = {}
    for j, rows in ms.task_rows.items():
        a_task[j] = np.zeros(len(rows), dtype=_F64)
        pos[j] = {merged.triples[i].x.key: p for p, i in enumerate(rows)}
    for i, tr in enumerate(ds.triples):
        a_cond[ms.unique_inputs.slot(tr.x.key)] += a_raw[i]
        a_task[tr.task][pos[tr.task][tr.x.key]] += a_raw[i]
    return ModelCoefficients(ms.unique_inputs, a_cond, b, a_task, ms.task_slots, a_raw)


def solve_full_system(ds, cfg):
    """Oracle: solve the full saddle system over all raw observations."""
    K, w, psi, y = _assemble_dense(ds, cfg)
    ell = len(ds)
    d = cfg.bias_dim
    G = K + cfg.lam * np.diag(w)
    if cfg.alpha == 0.0 or d == 0:
        a = _refined_solve(G, y) if ell else np.zeros(0, dtype=_F64)
        b = np.zeros(d, dtype=_F64)
    else:
        top = np.hstack([G, psi])
        bottom = np.hstack([psi.T, np.zeros((d, d), dtype=_F64)])
        full = np.vstack([top, bottom])
        rhs = np.concatenate([y, np.zeros(d, dtype=_F64)])
        sol = _refined_solve(full, rhs)
        a = sol[:ell]
        b = sol[ell:] / cfg.alpha  # the saddle unknown is alpha*b
    return _condense(ds, cfg, a, b)


def solve_backfit(ds, cfg):
    """Bias first, then kernel coefficients against the residual."""
    K, w, psi, y = _assemble_dense(ds, cfg)
    d = cfg.bias_dim
    G = K + cfg.lam * np.diag(w)
    if len(ds) == 0:
        return _condense(ds, cfg, np.zeros(0, dtype=_F64), np.zeros(d, dtype=_F64))
    if cfg.alpha == 0.0 or d == 0:
        b = np.zeros(d, dtype=_F64)
        a = _refined_solve(G, y)
    else:
        gy = _refined_solve(G, y)
        gpsi = _refined_solve(G, psi)
        b = _refined_solve(cfg.alpha * (psi.T @ gpsi), psi.T @ gy)
        a = _refined_solve(G, y - cfg.alpha * (psi @ b))
    return _condense(ds, cfg, a, b)


# ===== condensed production solver =======================================


def _task_blocks(merged, ms, cfg):
    """Per-task inverses R_j = inv((1-alpha) Ktilde_j + lam diag(w_j))."""
    blocks = {}
    for j, rows in ms.task_rows.items():
        xs = [merged.triples[i].x for i in rows]
        y_j = np.array([merged.triples[i].y for i in rows], dtype=_F64)
        w_j = np.array([merged.triples[i].w for i in rows], dtype=_F64)
        kt = kernel_matrix(xs, xs, cfg.individual_for(j))
        a_mat = (1.0 - cfg.alpha) * kt + cfg.lam * np.diag(w_j)
        try:
            r_j = np.linalg.inv(a_mat)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("task %r block is singular" % (j,)) from exc
        blocks[j] = (r_j, y_j, w_j)
    return blocks


def build_factors(inputs, cfg):
    """LDL^T + bias factors over a sequence of unique inputs, in order."""
    factors = FactorSet(cfg.bias_dim)
    done = Pool()
    for x in inputs:
        k_head = kernel_row(cfg.shared, x, done)
        factors.append(k_head, eval_kernel(cfg.shared, x, x), cfg.bias.row(x))
        done.append(x)
    return factors


def solve_condensed(ds, cfg):
    """Production batch solve on merged data and unique-input factors."""
    merged = merge_repeats(ds)
    ms = build_index_structures(merged)
    n = len(ms.unique_inputs)
    alpha = cfg.alpha
    blocks = _task_blocks(merged, ms, cfg)

    a_task = {}
    if alpha == 0.0 or n == 0:
        b = np.zeros(cfg.bias_dim, dtype=_F64)
        a_cond = np.zeros(n, dtype=_F64)
        for j, (r_j, y_j, _) in blocks.items():
            a_task[j] = r_j @ y_j
            np.add.at(a_cond, ms.task_slots[j], a_task[j])
        return ModelCoefficients(ms.unique_inputs, a_cond, b, a_task, ms.task_slots)

    factors = build_factors(ms.unique_inputs, cfg)
    ld = factors.L.dense()

    # s = P^T R y and G = P^T R P, scattered from the task blocks
    s = np.zeros(n, dtype=_F64)
    G = np.zeros((n, n), dtype=_F64)
    for j, (r_j, y_j, _) in blocks.items():
        sl = ms.task_slots[j]
        np.add.at(s, sl, r_j @ y_j)
        G[np.ix_(sl, sl)] += r_j

    try:
        h_mat = np.linalg.inv(np.diag(1.0 / factors.D.values) + alpha * (ld.T @ G @ ld))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("condensed system is singular") from exc
    # the one shared solve, on H made exactly symmetric for its packed form
    h_sym = SymMatrix.from_dense((h_mat + h_mat.T) / 2)
    b, a_cond, q = shared_coefficients(ld.T @ s, h_sym, factors, alpha)
    for j, (r_j, y_j, _) in blocks.items():
        a_task[j] = r_j @ (y_j - alpha * (ld[ms.task_slots[j]] @ q))
    return ModelCoefficients(ms.unique_inputs, a_cond, b, a_task, ms.task_slots)


# ===== prediction ========================================================


def mixed_predictions(cfg, pool, a_cond, b, tasks, xs):
    """Mixed-effect predictions of several tasks over common inputs.

    pool is the Pool of unique inputs a_cond lives on; tasks holds one
    (task, a_task, slots) triple per output row, slots indexing pool.
    Row r is alpha * (shared rows . a_cond + bias rows . b)
    + (1 - alpha) * (individual rows . a_task), with the shared part
    evaluated once for all rows, and xs read once per individual kernel.
    """
    alpha = cfg.alpha
    shared = np.zeros(len(xs), dtype=_F64)
    if alpha > 0.0:
        if len(pool):
            shared = a_cond @ kernel_matrix(pool, xs, cfg.shared)
        if cfg.bias_dim:
            shared = shared + basis_matrix(xs, cfg.bias) @ b
        shared = alpha * shared
    out = np.empty((len(tasks), len(xs)), dtype=_F64)
    right = {}
    for r, (task, a_task, slots) in enumerate(tasks):
        out[r] = shared
        if alpha < 1.0 and len(slots):
            spec = cfg.individual_for(task)
            if spec not in right:
                right[spec] = operand(spec, xs)
            kt = kernel_matrix(pool, right[spec], spec, slots)
            out[r] += (1.0 - alpha) * (a_task @ kt)
    return out


def predict(coeffs, cfg, task, x):
    """Mixed-effect prediction for one task at one input."""
    return float(predictions_grid(coeffs, cfg, [task], [x])[0, 0])


def predictions_grid(coeffs, cfg, tasks, xs):
    """Predictions for many tasks over a common input list, shape
    (len(tasks), len(xs))."""
    rows = []
    for j in tasks:
        if j not in coeffs.a_task:
            raise UnknownTask("no coefficients for task %r" % (j,))
        rows.append((j, coeffs.a_task[j], coeffs.task_slots[j]))
    return mixed_predictions(cfg, coeffs.inputs, coeffs.a_cond, coeffs.b, rows, xs)
