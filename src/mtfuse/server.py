"""Streaming fusion server.

The server ingests (task, input, response, weight) triples one at a time
and keeps, at every step, exactly the state the condensed batch solver
would produce on the accumulated data: per-task regularized inverses,
the shared-kernel factors over unique inputs, and the disclosed pair
(condensed responses, condensed inverse).  Every update is a rank-one
patch; every update is planned fully before any state is touched, so a
rejected triple leaves the server bit-identical.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, MalformedFrame, SingularSystem, UnknownTask
from .kernels import (
    LOOKUP,
    InputPoint,
    Pool,
    check_observation,
    eval_kernel,
    kernel_row,
    merge_observation,
)
from .linalg import (
    FactorSet,
    GrowVec,
    SymMatrix,
    ldl_append,
    schur_enlarge_apply,
    schur_enlarge_plan,
    smw_rank_one_apply,
    smw_rank_one_plan,
    tri_solve_dlt,
)

_F64 = np.float64

# update cases, in dispatch order
CASE_REPEAT_TASK = "repeat-task"      # same (task, input): merge the observation
CASE_REPEAT_GLOBAL = "repeat-global"  # input known globally, new to this task
CASE_NEW_INPUT = "new-input"          # input never seen: factors grow first


class UpdateReceipt(NamedTuple):
    epoch: int
    case: str


@dataclass
class ClientModel:
    """One task's model at one epoch, what prediction reads: a view of
    the pool's inputs, the bias coefficients b, the condensed
    coefficients a_cond on the inputs, and the task's own coefficients
    a_task on its slots into them (see ServerEngine.task_coefficients)."""

    task: int
    epoch: int
    inputs: Pool
    b: np.ndarray
    a_cond: np.ndarray
    a_task: np.ndarray
    slots: np.ndarray


@dataclass(frozen=True)
class DisclosedDB:
    """Everything the server discloses, at one epoch.

    Contains only the unique inputs (a Pool), the condensed response
    vector, the condensed inverse and the LDL^T factors of the inputs
    (L, D and the bias map M, which are functions of the inputs and the
    config alone); per-task responses, weights and inverses are
    structurally absent.  That is the schema, not what it reveals: two
    consecutive summaries reveal a task's first observation between
    them, and H shows which inputs share a task (README, Privacy model).
    The pool and the factors are views of the server's buffers (or of a
    reader's copy of them, see protocol.Seen): entries below n never
    change, and an engine seeded from them copies before it appends,
    except that one seeded from a reader's summary shares the reader's
    right to append to L in place (see UnitLowerFactor.take).  H
    is read-only and never changes while the summary lives: the server
    lends its own, copy on write (see ServerEngine.get_disclosed), and a
    reader's is read from the wire; an engine seeded from it copies it,
    except that a snapshot load's engine lends its own H to the summary
    it is seeded from, copy on write (protocol.load_snapshot_from).
    """

    inputs: Pool
    y_cond: np.ndarray
    H: SymMatrix
    epoch: int
    factors: FactorSet


class TaskState:
    """Private per-task state: slots into the unique inputs and the
    position of each (pos), merged responses/weights, and the inverse of
    the task's regularized block."""

    __slots__ = ("slots", "pos", "y", "w", "R")

    def __init__(self, slots=(), y=(), w=(), R=None):
        self.slots = list(slots)
        self.pos = {s: p for p, s in enumerate(self.slots)}
        self.y = GrowVec(y)
        self.w = GrowVec(w)
        self.R = SymMatrix() if R is None else R


def shared_coefficients(y_cond, h_mat, factors, alpha):
    """The one shared solve: bias b, condensed coefficients a_cond and
    q = H (y_cond + M b) from disclosed data or offline's batch build.

    b solves M^T (D - H) M b = M^T H y_cond; the condensed coefficients
    solve D L^T a = q - D M b; every task's coefficients read q (see
    ServerEngine.get_task_coefficients).  With no bias or alpha = 0,
    b is zero by convention.
    """
    d = factors.bias_dim
    n = factors.n
    y_cond = np.asarray(y_cond, dtype=_F64)
    q = rhs = h_mat.matvec(y_cond)
    if d == 0 or alpha == 0.0 or n == 0:
        b = np.zeros(d, dtype=_F64)
    else:
        m_mat = factors.M
        dvals = factors.D.values
        dm = dvals[:, None] * m_mat
        hm = np.column_stack([h_mat.matvec(col) for col in m_mat.T])
        try:
            b = np.linalg.solve(m_mat.T @ (dm - hm), m_mat.T @ q)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("bias system is singular") from exc
        if not np.all(np.isfinite(b)):
            raise SingularSystem("bias solve produced non-finite values")
        q = q + hm @ b
        rhs = q - dm @ b
    a_cond = tri_solve_dlt(factors.L, factors.D, rhs)
    return b, a_cond, q


def _top(a):
    # the largest |entry| of a (NaN if one is), 0.0 for an empty a
    return float(np.abs(a).max()) if len(a) else 0.0


class ServerEngine:
    """Incremental server state plus the update rules."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.factors = FactorSet(cfg.bias_dim)
        self.inputs = Pool()
        self.y_cond = GrowVec()
        self.H = SymMatrix()
        self.tasks = {}
        self.epoch = 0
        self._shared = None  # the shared solve of this epoch, once read

    @property
    def n(self):
        return len(self.inputs)

    @classmethod
    def from_disclosed(cls, db, cfg, H=None):
        """Local engine seeded from a disclosed snapshot (no task data).

        It takes a view of db's pool, which copies out on its first
        append, and db's factors with their right to append to L in place
        (see UnitLowerFactor.take): a server's own summary lends none, so
        the engine never writes into the server's buffer, and a reader's
        lends its Seen's, so the engine appends there unless a live
        factor holds rows past db's.  It copies H, the one array it
        patches in place, unless it is given H, a matrix of its own
        with db's entries (protocol.load_snapshot_from reads one and
        lends it to db).  A bias map that does not have cfg's bias
        dimension is malformed.
        """
        n = len(db.inputs)
        f = db.factors
        if f.n != n or f.M.size != n * cfg.bias_dim:
            raise MalformedFrame(
                "the disclosed factors do not fit %d inputs and %d bias columns"
                % (n, cfg.bias_dim)
            )
        eng = cls(cfg)
        eng.inputs = db.inputs.view()
        eng.factors = FactorSet.of(f.L.take(), f.D.values, f.M.reshape(n, cfg.bias_dim))
        eng.y_cond = GrowVec(db.y_cond)
        eng.H = db.H.copy() if H is None else H
        eng.epoch = db.epoch
        return eng

    # ----- ingestion ----------------------------------------------------

    def receive_example(self, task, x, y, w):
        """Fold one observation in; returns the receipt, or raises with
        the state untouched."""
        if not isinstance(x, InputPoint):
            raise TypeError("x must be an InputPoint")
        y, w = check_observation(y, w)
        task = int(task)

        s = self.inputs.slot(x.key)
        if s is None:
            # the shared kernel compares a new input with every pooled one
            self.inputs.check(x, self.cfg.shared.variant != LOOKUP)
            grow = self._plan_new_input(x)
            ext = self._plan_task_extension(task, x, self.n, y, w, grow)
            self._commit_new_input(x, grow)
            self._commit_task_extension(task, self.n - 1, y, w, ext)
            case = CASE_NEW_INPUT
        else:
            st = self.tasks.get(task)
            p = st.pos.get(s) if st is not None else None
            if p is None:
                ext = self._plan_task_extension(task, self.inputs[s], s, y, w, None)
                self._commit_task_extension(task, s, y, w, ext)
                case = CASE_REPEAT_GLOBAL
            else:
                merge = self._plan_merge(task, p, y, w)
                self._commit_merge(task, p, merge)
                case = CASE_REPEAT_TASK
        self.epoch += 1
        self._shared = None
        return UpdateReceipt(self.epoch, case)

    # ----- planning (pure, may raise) -----------------------------------

    def _plan_new_input(self, x):
        cfg = self.cfg
        k_head = kernel_row(cfg.shared, x, self.inputs)
        k_self = eval_kernel(cfg.shared, x, x)
        r, beta = ldl_append(self.factors.L, self.factors.D, k_head, k_self)
        mrow = self.factors.bias_row(r, beta, cfg.bias.row(x))
        return r, beta, mrow

    def _plan_task_extension(self, task, xc, slot, y, w, grow):
        cfg = self.cfg
        spec = cfg.individual_for(task)
        st = self.tasks.get(task)
        old_slots = st.slots if st is not None else []
        scale = 1.0 - cfg.alpha

        # one row over the task's inputs and xc itself; a new input is not
        # in the pool yet, so its own value is evaluated as a pair
        if grow is None:
            k = kernel_row(spec, xc, self.inputs, old_slots + [slot])
        else:
            k = np.append(kernel_row(spec, xc, self.inputs, old_slots),
                          eval_kernel(spec, xc, xc))
        ktilde = scale * k
        r_mat = st.R if st is not None else SymMatrix()
        u, gamma = schur_enlarge_plan(r_mat, ktilde, cfg.lam * w)
        y_ext = np.append(st.y.values, y) if st is not None else np.array([y])
        mu = gamma * float(np.dot(u, y_ext))

        n = self.n
        if grow is not None:
            # the new input's row of L is (r, 1)
            r = grow[0]
            v = np.zeros(n + 1, dtype=_F64)
            v[:n] = self.factors.L.rows_t_matvec(old_slots, u[:-1])
            v[:n] += u[-1] * r
            v[n] += u[-1]
        else:
            v = self.factors.L.rows_t_matvec(old_slots + [slot], u)

        h_plan = None
        if cfg.alpha > 0.0:
            z = None
            if grow is not None:
                # H is bordered by (0, beta) when the new input commits
                z = np.append(self.H.matvec(v[:n]), grow[1] * v[n])
            h_plan = smw_rank_one_plan(self.H, v, cfg.alpha * gamma, z=z)
        return u, gamma, self._checked_step(mu, v, (u, gamma), h_plan), h_plan

    def _plan_merge(self, task, p, y, w):
        cfg = self.cfg
        st = self.tasks[task]
        w_old = float(st.w.values[p])
        y_old = float(st.y.values[p])
        # a merge that leaves a weight or response the engine would refuse
        # (w_old * w overflows or underflows) is refused the same way
        y_new, w_new = check_observation(*merge_observation(y_old, w_old, y, w))

        u = st.R.column(p)
        # the regularized diagonal drops by exactly lam * (w_old - w_new):
        # a rank-one downdate of the task block along e_p
        c = cfg.lam * (w_old - w_new)
        if c > 0.0:
            e_p = np.zeros(len(u), dtype=_F64)
            e_p[p] = 1.0
            u, gamma = smw_rank_one_plan(st.R, e_p, -c, z=u, definite=True)
        else:
            gamma = 0.0  # weight change underflowed; inverse is unchanged

        y_ext = st.y.values.copy()
        y_ext[p] = y_new
        mu = (y_new - y_old) + gamma * float(np.dot(u, y_ext))
        v = self.factors.L.rows_t_matvec(st.slots, u)

        h_plan = None
        if cfg.alpha > 0.0 and gamma != 0.0:
            h_plan = smw_rank_one_plan(self.H, v, cfg.alpha * gamma)
        step = self._checked_step(mu, v, (u, gamma), h_plan)
        return w_new, y_new, u, gamma, step, h_plan

    def _checked_step(self, mu, v, *patches):
        """The y_cond step mu v of a plan, checked with the plan's
        patches, each a (z, c) for c z z^T: a step, a y_cond after it or
        a patch that is not finite (a response too large, say) refuses
        the triple with InvalidInput, before anything is written.  The
        commit adds this step, so an accepted triple keeps its bits.

        The checks are on largest magnitudes, which round as the largest
        entries do: a patch passes exactly when it is finite, and a step
        when max|y_cond| + max|step| is, which refuses beyond non-finite
        plans only sums within a factor of two of overflow.  mu v is
        formed once it is known to be finite, so it never warns."""
        tops = [abs(mu) * _top(v) + _top(self.y_cond.values)]
        for z, c in filter(None, patches):
            top = _top(z)
            tops.append(c * top * top)
        if not all(map(math.isfinite, tops)):
            raise InvalidInput("the update would leave the model's state non-finite")
        return mu * v

    # ----- commits (no failure paths) -----------------------------------

    def _commit_new_input(self, x, grow):
        r, beta, mrow = grow
        self.factors.append_precomputed(r, beta, mrow)
        self.inputs.append(x)
        self.y_cond.append(0.0)
        border = np.zeros(self.n, dtype=_F64)
        border[-1] = beta
        self.H.append_border_row(border)

    def _commit_task_extension(self, task, slot, y, w, ext):
        u, gamma, step, h_plan = ext
        st = self.tasks.get(task)
        if st is None:
            st = self.tasks[task] = TaskState()
        st.pos[slot] = len(st.slots)
        st.slots.append(slot)
        st.y.append(y)
        st.w.append(w)
        schur_enlarge_apply(st.R, u, gamma)
        self._commit_disclosed(step, h_plan)

    def _commit_merge(self, task, p, merge):
        w_new, y_new, u, gamma, step, h_plan = merge
        st = self.tasks[task]
        st.w.values[p] = w_new
        st.y.values[p] = y_new
        if gamma != 0.0:
            smw_rank_one_apply(st.R, u, gamma)
        self._commit_disclosed(step, h_plan)

    def _commit_disclosed(self, step, h_plan):
        self.y_cond.values[:] += step
        if h_plan is not None:
            smw_rank_one_apply(self.H, *h_plan)

    # ----- reads --------------------------------------------------------

    def get_disclosed(self):
        """The DisclosedDB of this epoch, which never changes: y_cond is
        copied (8n bytes), and H is lent (SymMatrix.packed), copy on
        write: while the result lives, the engine's next commit moves its
        own H to a copy first.  So a read copies H at most once, and only
        when a commit runs while the read is held."""
        y = self.y_cond.values.copy()
        y.flags.writeable = False
        return DisclosedDB(self.inputs.view(), y, SymMatrix.from_packed(self.H.packed, self.n),
                           self.epoch, self.factors.view())

    def get_config(self):
        return self.cfg

    def _shared_solve(self):
        """(b, a_cond, q) of this epoch from shared_coefficients, solved
        on the epoch's first read and kept, read-only, until the next
        commit."""
        if self._shared is None:
            solved = shared_coefficients(
                self.y_cond.values, self.H, self.factors, self.cfg.alpha
            )
            for arr in solved:
                arr.flags.writeable = False
            self._shared = solved
        return self._shared

    def get_task_coefficients(self, task, q=None):
        """Private coefficients a_j = R_j (y_j - alpha L[slots] q) of one
        task; q is the shared solve's (this epoch's when not given)."""
        st = self.tasks.get(task)
        if st is None:
            raise UnknownTask("task %r has no data on this server" % (task,))
        alpha = self.cfg.alpha
        if alpha == 0.0:
            return st.R.matvec(st.y.values)
        if q is None:
            q = self._shared_solve()[2]
        proj = self.factors.L.rows_matvec(st.slots, q)
        return st.R.matvec(st.y.values - alpha * proj)

    def task_coefficients(self, task):
        """The ClientModel of one task from the epoch's shared solve; a
        task with no data here gets empty a_task and slots."""
        b, a_cond, q = self._shared_solve()
        a, slots = np.zeros(0, dtype=_F64), ()
        if task in self.tasks:
            a, slots = self.get_task_coefficients(task, q), self.tasks[task].slots
        return ClientModel(task, self.epoch, self.inputs.view(), b, a_cond, a,
                           np.asarray(slots, dtype=np.intp))
