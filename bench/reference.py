"""Independent numpy solve of the mixed-effect problem, for checking.

Written from the model definition, not from mtfuse's code paths: the
shared Gram is factored with a Cholesky factorisation, each task's
regularised block is inverted densely, and predictions come from a
Woodbury form of the full system over merged observations.

Model.  Observations (task j, input x, response y, weight w) are merged
per (task, input): weights add harmonically, responses average with
weights 1/w.  With K the shared Gram (exp(x . x')) over the n unique
inputs, K = L D L^T its LDL^T factor, and per task

    B_j = (1 - alpha) X_j X_j^T + lam diag(w_j),   R_j = B_j^-1,

the server discloses

    y_cond = L^T s,   s = sum_j P_j^T R_j y_j,
    H = (D^-1 + alpha L^T G L)^-1,   G = sum_j P_j^T R_j P_j.

The fitted model solves (B + alpha P K P^T) a + alpha psi b = y with
psi^T a = 0 (constant bias psi = 1), and predicts

    f_j(x) = alpha (c . k(X, x) + b) + (1 - alpha) a_j . (X_j x),

with c = P^T a.  Woodbury gives (B + alpha P K P^T)^-1 =
B^-1 - alpha B^-1 P L H L^T P^T B^-1, so every quantity needs only
n-sized products with the H computed here.
"""

import numpy as np


def merge(triples):
    """Merged data in arrival order of unique inputs.

    triples: iterable of (task, key, features, y, w).  Returns
    (keys, features, tasks) where tasks maps task -> (slots, y, w).
    """
    keys, feats, slot_of = [], [], {}
    acc, order = {}, {}
    for task, key, f, y, w in triples:
        s = slot_of.get(key)
        if s is None:
            s = slot_of[key] = len(keys)
            keys.append(key)
            feats.append(f)
        cell = acc.get((task, s))
        if cell is None:
            cell = acc[(task, s)] = [0.0, 0.0]
            order.setdefault(task, []).append(s)
        cell[0] += 1.0 / w
        cell[1] += y / w
    tasks = {}
    for task, slots in order.items():
        inv_w = np.array([acc[(task, s)][0] for s in slots])
        y_over_w = np.array([acc[(task, s)][1] for s in slots])
        tasks[task] = (np.array(slots, dtype=np.intp), y_over_w / inv_w, 1.0 / inv_w)
    return keys, np.array(feats, dtype=np.float64).reshape(len(keys), -1), tasks


class Reference:
    """Disclosed state and predictions for one merged dataset."""

    def __init__(self, triples, alpha, lam):
        self.alpha = alpha
        self.keys, self.F, tasks = merge(triples)
        F = self.F
        n = len(self.keys)
        chol = np.linalg.cholesky(np.exp(F @ F.T))
        piv = np.diag(chol).copy()
        self.d = piv**2
        self.L = chol / piv[None, :]
        self.G = np.zeros((n, n))
        self.s = np.zeros(n)
        self.R = {}
        for task, (slots, y, w) in tasks.items():
            X = F[slots]
            r = np.linalg.inv((1.0 - alpha) * (X @ X.T) + lam * np.diag(w))
            self.R[task] = (slots, y, r)
            self.G[np.ix_(slots, slots)] += r
            np.add.at(self.s, slots, r @ y)
        self.y_cond = self.L.T @ self.s
        h_inv = np.diag(1.0 / self.d) + alpha * (self.L.T @ self.G @ self.L)
        self.H = np.linalg.inv(0.5 * (h_inv + h_inv.T))
        self._coeffs()

    def _t(self, u):
        # P^T A^-1 applied through P^T B^-1: u - alpha G L H L^T u
        return u - self.alpha * (self.G @ (self.L @ (self.H @ (self.L.T @ u))))

    def _coeffs(self):
        a = self.alpha
        g = self.G.sum(axis=1)
        ts, tg = self._t(self.s), self._t(g)
        self.b = ts.sum() / (a * tg.sum())
        self.c = ts - a * self.b * tg
        q = self.L @ (self.H @ (self.L.T @ (self.s - a * self.b * g)))
        self.a_task = {
            task: r @ (y - a * self.b) - a * (r @ q[slots])
            for task, (slots, y, r) in self.R.items()
        }

    def predict(self, task, Xq):
        """Predictions for one task at query features Xq (rows)."""
        a = self.alpha
        out = a * (np.exp(Xq @ self.F.T) @ self.c + self.b)
        if task in self.a_task:
            slots = self.R[task][0]
            out = out + (1.0 - a) * ((Xq @ self.F[slots].T) @ self.a_task[task])
        return out


def rel_err(got, want):
    """max |got - want| / max(1, |want|): the acceptance suite's metric."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return float("inf")
    if got.size == 0:
        return 0.0
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
