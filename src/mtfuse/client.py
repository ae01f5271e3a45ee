"""Client-side model recovery.

An *active* client reads its task's model from the server in one call.
A *passive* client never sends its observations anywhere: it seeds a
local engine with the public disclosed snapshot and the factors of its
inputs, replays its own triples through the exact same update rules the
server runs, and reads its model from that engine with the same call.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .kernels import Pool
from .offline import mixed_predictions
from .server import ServerEngine


@dataclass
class PrivateData:
    """A task's own observations: (input, response, weight) triples."""

    triples: list


@dataclass
class ClientModel:
    """What prediction reads for one task at one epoch."""

    task: int
    epoch: int
    inputs: Pool
    b: np.ndarray
    a_cond: np.ndarray
    a_task: np.ndarray
    slots: np.ndarray


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
        view = server.task_coefficients(self.task)
        if self._cached is None or self._cached.epoch != view.epoch:
            self._cached = self._model(view.epoch, view)
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
        return self._model(disclosed.epoch, local.task_coefficients(self.task))

    def _model(self, epoch, view):
        """The model of this task from a TaskCoeffsView, sharing its pool."""
        return ClientModel(
            task=self.task,
            epoch=epoch,
            inputs=view.inputs,
            b=view.b,
            a_cond=view.a_cond,
            a_task=view.a,
            slots=np.asarray(view.slots, dtype=np.intp),
        )


def client_predictions(model, cfg, xs):
    """Mixed-effect predictions of a client model over the points xs;
    zeros on an empty model."""
    own = (model.task, model.a_task, model.slots)
    return mixed_predictions(cfg, model.inputs, model.a_cond, model.b, [own], xs)[0]


def predict_client(model, cfg, x):
    """Mixed-effect prediction from a client model at one point."""
    return float(client_predictions(model, cfg, [x])[0])


def preference_score(model, cfg, x):
    """Squash the prediction to a (0, 1) preference."""
    return float(expit(predict_client(model, cfg, x) / 2.0))
