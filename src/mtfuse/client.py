"""Client-side model recovery.

A task's model is one server.ClientModel, which holds the pool of
inputs it lives on.  An *active* client reads it from the server in
one call.  A *passive* client never sends its observations anywhere:
it seeds a local engine with the public disclosed snapshot and the
factors of its inputs, replays its own triples through the exact same
update rules the server runs, and reads its model from that engine with
the same call.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .offline import mixed_predictions
from .server import ClientModel, ServerEngine


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

        Replays the private triples through a local engine seeded from
        the disclosed snapshot; the local updates are the same code the
        server runs, so the result equals an active refresh against a
        server that had received those triples last.  The model carries
        the disclosed epoch, not the local engine's.
        """
        local = ServerEngine.from_disclosed(disclosed, self.cfg)
        for x, y, w in private.triples:
            local.receive_example(self.task, x, y, w)
        return replace(local.task_coefficients(self.task), epoch=disclosed.epoch)


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
