"""Client-side model recovery.

A task's model is one server.ClientModel, which holds the pool of
inputs it lives on.  An *active* client reads it from the server in
one call.  A *passive* client never sends its observations anywhere:
it folds its own triples into the public disclosed summary as one
rank-l correction of it (see Client.passive_refresh), which gives the
model of a server that received those triples last, to rounding.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInput
from .kernels import InputPoint, check_observation, kernel_matrix, merge_observation, operand
from .linalg import RankUpdate, cholesky, cholesky_solve, woodbury_plan
from .offline import mixed_predictions
from .server import ClientModel, disclosed_factors, plan_new_input, shared_coefficients

_F64 = np.float64


@dataclass
class PrivateData:
    """A task's own observations: (input, response, weight) triples."""

    triples: list


class Client:
    """One task's view of the system.

    `server` arguments are duck-typed: anything with task_coefficients
    works, in particular both a local ServerEngine and the TCP proxy
    from the daemon module.
    """

    def __init__(self, task, cfg, token=None):
        self.task = int(task)
        self.cfg = cfg
        self.token = token
        self._cached: Optional[ClientModel] = None

    # ----- active path --------------------------------------------------

    def active_refresh(self, server):
        """Read this task's model from the server; models are cached by
        epoch, so refreshing an unchanged server returns the same object."""
        model = server.task_coefficients(self.task)
        if self._cached is None or self._cached.epoch != model.epoch:
            self._cached = model
        return self._cached

    # ----- passive path -------------------------------------------------

    def passive_refresh(self, disclosed, private):
        """Recover the model without uploading anything.

        The private triples are merged per input in arrival order, with
        the server's checks and merge.  An input the summary lacks
        extends a local pool and the summary's factors by the server's
        own append (server.plan_new_input), so the pool, the slots and
        L's rows are those of a server that received the triples last.
        The task's l inputs, at rows L_t of L, add alpha L_t^T R_t L_t
        to the inverse of H and L_t^T R_t y_t to y_cond, where R_t is
        the inverse of Q_t = (1 - alpha) K_t + lam W_t.  The shared
        solve reads the new H as one rank-l correction of the lent H
        (linalg.woodbury_plan): l + 1 + d products with it, which is
        neither copied nor written.

        So the model equals that server's to rounding, not bit for bit;
        with no private triples it is the summary's own, bit for bit.
        A triple the server would refuse is refused with the server's
        error, and nothing of the summary changes.  The model carries
        the disclosed epoch.
        """
        cfg, alpha = self.cfg, self.cfg.alpha
        inputs, factors = disclosed.inputs.view(), disclosed_factors(disclosed, cfg)
        pos, slots, y_t, w_t = {}, [], [], []
        for x, y, w in private.triples:
            if not isinstance(x, InputPoint):
                raise TypeError("x must be an InputPoint")
            y, w = check_observation(y, w)
            p = pos.get(x.key)
            if p is not None:
                # a merge to a weight or response the server would refuse
                # is refused the same way
                y_t[p], w_t[p] = check_observation(*merge_observation(y_t[p], w_t[p], y, w))
                continue
            s = inputs.slot(x.key)
            if s is None:
                factors.append_precomputed(*plan_new_input(cfg, inputs, factors, x))
                inputs.append(x)
                s = len(inputs) - 1
            pos[x.key] = len(slots)
            slots.append(s)
            y_t.append(y)
            w_t.append(w)

        slots = np.asarray(slots, dtype=np.intp)
        h_mat, y_cond, a_task = disclosed.H, disclosed.y_cond, np.zeros(0, dtype=_F64)
        if len(slots):
            spec = cfg.individual_for(self.task)
            k = operand(spec, inputs, slots)
            q_t = (1.0 - alpha) * kernel_matrix(k, k, spec) + np.diag(cfg.lam * np.array(w_t))
            a_task = cholesky_solve(cholesky(q_t), y_t)  # R_t y_t
            l_t = factors.L.block(slots)
            n, grown = h_mat.n, len(inputs)
            y_cond = np.append(y_cond, np.zeros(grown - n)) + a_task @ l_t
            tail = factors.D.values[n:]
            if alpha > 0.0:
                h_mat = woodbury_plan(h_mat, l_t, q_t / alpha, tail)
            else:
                h_mat = RankUpdate(h_mat, tail, np.zeros((0, grown)), np.zeros((0, 0)))
            if not np.isfinite(y_cond).all():
                raise InvalidInput("the update would leave the model's state non-finite")
        b, a_cond, _ = shared_coefficients(y_cond, h_mat, factors, alpha)
        if len(slots) and alpha > 0.0:
            # a_t = R_t (y_t - alpha L_t H' u) with u = y_cond + M b, and
            # L_t H' = (Q_t / alpha) S^-1 Z^T: a_t = R_t y_t - S^-1 Z^T u,
            # which spares R_t's amplification of the error in H' u
            u = y_cond + factors.M @ b
            a_task = a_task - cholesky_solve(h_mat.c, h_mat.Zt @ u)
        return ClientModel(self.task, disclosed.epoch, inputs, b, a_cond, a_task, slots)


def client_predictions(model, cfg, xs):
    """Mixed-effect predictions of a client model over the points xs;
    zeros on an empty model."""
    own = (model.task, model.a_task, model.slots)
    return mixed_predictions(cfg, model.inputs, model.a_cond, model.b, [own], xs)[0]


def predict_client(model, cfg, x):
    """Mixed-effect prediction from a client model at one point."""
    return float(client_predictions(model, cfg, [x])[0])


def squash(f):
    """Map scores to (0, 1) preferences: 1 / (1 + exp(-f/2)).  exp
    overflows to inf for f below about -1419, which gives the exact 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(f, dtype=np.float64) / 2.0))


def preference_score(model, cfg, x):
    """Squash the prediction to a (0, 1) preference."""
    return float(squash(predict_client(model, cfg, x)))
