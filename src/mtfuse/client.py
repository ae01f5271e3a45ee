"""Client-side model recovery from disclosed data.

An *active* client downloads its private coefficients from the server.
A *passive* client never sends its observations anywhere: it seeds a
local engine with the public disclosed snapshot, replays its own triples
through the exact same update rules the server runs, and recovers its
coefficients locally.  Both paths rebuild one local engine from the
disclosed snapshot (ServerEngine.from_disclosed: the shared factors of
the unique inputs, in the server's append order, so they match the
server's bit for bit) and take b, a_cond and q from one shared solve.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .errors import UnknownTask
from .kernels import FeatureRows
from .offline import mixed_predictions
from .server import ServerEngine, TaskCoeffsView, shared_coefficients

_F64 = np.float64


@dataclass
class PrivateData:
    """A task's own observations: (input, response, weight) triples."""

    triples: list


@dataclass
class ClientModel:
    """What prediction reads for one task at one epoch."""

    task: int
    epoch: int
    inputs: tuple
    feats: FeatureRows
    b: np.ndarray
    a_cond: np.ndarray
    a_task: np.ndarray
    slots: np.ndarray


class Client:
    """One task's view of the system.

    `server` arguments are duck-typed: anything with get_disclosed and
    task_coefficients works, in particular both a local ServerEngine and
    the TCP proxy from the daemon module.
    """

    def __init__(self, task, cfg, token=None):
        self.task = int(task)
        self.cfg = cfg
        self.token = token
        self._cached: Optional[ClientModel] = None

    # ----- active path --------------------------------------------------

    def active_refresh(self, server):
        """Download disclosed data + own coefficients; rebuild the model.

        Retries when a write lands between the two reads; models are
        cached by epoch, so refreshing an unchanged server is free and
        returns the identical object.
        """
        for _ in range(8):
            db = server.get_disclosed()
            if self._cached is not None and self._cached.epoch == db.epoch:
                return self._cached
            try:
                tc = server.task_coefficients(self.task)
            except UnknownTask:
                tc = TaskCoeffsView(epoch=db.epoch, a=np.zeros(0, dtype=_F64), keys=())
            if tc.epoch == db.epoch:
                break
        else:
            raise RuntimeError("server kept changing between reads")
        local = ServerEngine.from_disclosed(db, self.cfg)
        own = (tc.a, [local.key_slot[k] for k in tc.keys])
        self._cached = self._model(db.epoch, local, own)
        return self._cached

    # ----- passive path -------------------------------------------------

    def passive_refresh(self, disclosed, private):
        """Recover the model without uploading anything.

        Replays the private triples through a local engine seeded from
        the disclosed snapshot; the local updates are the same code the
        server runs, so the result equals an active refresh against a
        server that had received those triples last.
        """
        local = ServerEngine.from_disclosed(disclosed, self.cfg)
        for x, y, w in private.triples:
            local.receive_example(self.task, x, y, w)
        return self._model(disclosed.epoch, local)

    def _model(self, epoch, local, own=None):
        """The model of this task from an engine rebuilt from disclosed
        data.  own is (a_task, slots) as the server sent them; without
        it, they come from the engine's own state of this task.  The
        model keeps neither factors nor the disclosed pair."""
        b, a_cond, q = shared_coefficients(
            local.y_cond.values, local.H, local.factors, self.cfg.alpha
        )
        if own is None:
            try:
                a_task = local.get_task_coefficients(self.task, q)
                own = (a_task, local.tasks[self.task].slots)
            except UnknownTask:
                own = ((), ())
        a_task, slots = own
        return ClientModel(
            task=self.task,
            epoch=epoch,
            inputs=tuple(local.inputs),
            feats=local.feats,
            b=b,
            a_cond=a_cond,
            a_task=np.asarray(a_task, dtype=_F64),
            slots=np.asarray(slots, dtype=np.intp),
        )


def client_predictions(model, cfg, xs):
    """Mixed-effect predictions of a client model over the points xs;
    zeros on an empty model."""
    own = (model.task, model.a_task, model.slots)
    return mixed_predictions(
        cfg, model.inputs, model.feats, model.a_cond, model.b, [own], xs
    )[0]


def predict_client(model, cfg, x):
    """Mixed-effect prediction from a client model at one point."""
    return float(client_predictions(model, cfg, [x])[0])


def preference_score(model, cfg, x):
    """Squash the prediction to a (0, 1) preference."""
    return float(expit(predict_client(model, cfg, x) / 2.0))
