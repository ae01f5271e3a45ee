"""Seeded operation plans for the three benchmark workloads.

A plan is everything a run sends, decided before the daemon starts: the
catalog of artists (64-dimensional unit-norm Gaussian features), the
ratings that build the preloaded pool, the warm-up submits, and the
timed schedule of submits and recommendation sessions.  The same
(workload, seed, seconds, smoke) always gives the same plan, and the
number of operations depends only on (workload, seconds, smoke), never
on the seed.

The generator also replays the plan against a model of the server's
bookkeeping (which keys it knows, which keys each task has rated), so
every submit carries the update case the daemon must acknowledge.
"""

from dataclasses import dataclass, field

import numpy as np

ALPHA = 0.5
LAM = 0.1
DIM = 64
SLATE = 100      # catalog items scored per recommendation
TOP = 20         # items kept per recommendation

NEW = "new-input"
GLOBAL = "repeat-global"
TASK = "repeat-task"

WORKLOADS = ("steady-ratings", "recommend-sessions")


@dataclass
class Rating:
    task: int
    item: int
    y: float
    w: float
    case: str = ""   # update case the server must report


@dataclass
class Session:
    user: int
    passive: bool
    ratings: list          # submitted (active) or added to the private list (passive)
    private: list = None   # passive only: the whole private list at this session


@dataclass
class Plan:
    features: np.ndarray     # (catalog size, DIM), unit rows
    keys: list               # bytes key per catalog item
    pool: list               # Ratings streamed into the pool during set-up
    warmup: list             # Ratings submitted untimed before the timed phase
    timed: list              # Ratings and Sessions, in order
    slate: np.ndarray        # item indices scored by every recommendation
    tokens: dict             # task -> token, for every task that submits
    active_users: list
    passive_users: list
    submitted: list = field(default_factory=list)  # every Rating sent, in order

    def ops(self):
        """Counts of the timed operations, by kind."""
        n = {"submit": 0, "refresh": 0, "passive": 0, "recommend": 0}
        for op in self.timed:
            if isinstance(op, Rating):
                n["submit"] += 1
            elif op.passive:
                n["passive"] += 1
                n["recommend"] += 1
            else:
                n["submit"] += len(op.ratings)
                n["refresh"] += 1
                n["recommend"] += 1
        return n


class _RatingSource:
    """Draws ratings while tracking what the server will know."""

    def __init__(self, rng, features):
        self.rng = rng
        self.features = features
        self.next_item = 0           # catalog items are introduced in order
        self.known = []              # items the server knows, in arrival order
        self.known_set = set()
        self.rated = {}              # task -> items it rated on the server
        self.rated_set = {}
        self.g = rng.normal(size=DIM)
        self.u = {}

    def fresh_item(self):
        i = self.next_item
        if i >= len(self.features):
            raise ValueError("catalog exhausted; raise its size")
        self.next_item += 1
        return i

    def response(self, task, item):
        u = self.u.get(task)
        if u is None:
            u = self.u[task] = self.rng.normal(size=DIM)
        return float(2.0 * (self.g + u) @ self.features[item] + 0.3 * self.rng.normal())

    def rating(self, task, kind):
        """One server rating of the given kind (falls back when impossible)."""
        mine = self.rated.get(task, [])
        if kind == TASK and not mine:
            kind = GLOBAL
        if kind == GLOBAL and len(mine) >= len(self.known):
            kind = NEW
        if kind == NEW:
            item = self.fresh_item()
        elif kind == TASK:
            item = mine[int(self.rng.integers(len(mine)))]
        else:
            mine_set = self.rated_set.get(task, set())
            while True:
                item = self.known[int(self.rng.integers(len(self.known)))]
                if item not in mine_set:
                    break
        return self.record(task, item)

    def record(self, task, item):
        rated = self.rated.setdefault(task, [])
        rated_set = self.rated_set.setdefault(task, set())
        if item not in self.known_set:
            case = NEW
            self.known.append(item)
            self.known_set.add(item)
        elif item in rated_set:
            case = TASK
        else:
            case = GLOBAL
        if item not in rated_set:
            rated.append(item)
            rated_set.add(item)
        w = float(self.rng.choice((0.5, 1.0, 2.0)))
        return Rating(task, item, self.response(task, item), w, case)

    def round_kinds(self, new, task, size):
        """Update cases of one round, in a seeded order.

        Exact counts per round keep the pool size the same for every
        seed, so memory figures do not depend on where the pool falls
        against the buffers' power-of-two capacities.
        """
        kinds = [NEW] * new + [TASK] * task + [GLOBAL] * (size - new - task)
        return [kinds[i] for i in self.rng.permutation(size)]

    def passive_ratings(self, user, private, first):
        """Ratings a passive user adds to their private list.

        One item the server knows, one item only this user has, and
        from the second session on a re-rating of an earlier private
        item, so the local replay runs all three update cases.
        """
        out = []
        mine = {r.item for r in private}
        choices = [i for i in self.known if i not in mine]
        if choices:
            item = choices[int(self.rng.integers(len(choices)))]
            out.append(self._private(user, item))
        out.append(self._private(user, self.fresh_item()))
        if not first:
            item = private[int(self.rng.integers(len(private)))].item
            out.append(self._private(user, item))
        return out

    def _private(self, user, item):
        w = float(self.rng.choice((0.5, 1.0, 2.0)))
        return Rating(user, item, self.response(user, item), w)


def _sizes(workload, seconds, smoke):
    """Schedule sizes: whole rounds, scaled by the run length."""
    k = 10 if smoke else 1
    if workload == "steady-ratings":
        return dict(pool=1000 // k, pool_users=50 // k, warmup=50 // k,
                    round=1000 // k, rounds=max(1, round(0.25 * seconds)))
    return dict(pool=480 // k, pool_users=24 // k, warmup=20 // k,
                rounds=max(1, round(0.4 * seconds)))


def make_plan(workload, seed, seconds, smoke=False):
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    sz = _sizes(workload, seconds, smoke)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    catalog = 4000 if not smoke else 600
    feats = rng.normal(size=(catalog, DIM))
    feats /= np.linalg.norm(feats, axis=1)[:, None]
    b = _RatingSource(rng, feats)
    keys = [b"artist-%05d" % i for i in range(catalog)]

    # the pool: pool users each rate an equal share of items new to the
    # server, interleaved in a seeded order
    owners = rng.permutation(np.arange(sz["pool"]) % max(1, sz["pool_users"]))
    pool = [b.record(int(t), b.fresh_item()) for t in owners]

    timed = []

    def passive_session(u):
        add = b.passive_ratings(u, private[u], not private[u])
        private[u] = private[u] + add
        timed.append(Session(u, True, add, list(private[u])))

    if workload == "steady-ratings":
        writers = np.arange(200)
        warm = [b.rating(int(rng.choice(writers)), kind)
                for kind in b.round_kinds(0, 21 * sz["warmup"] // 50, sz["warmup"])]
        active, passive = [0], [900]
        private = {900: []}
        for _ in range(sz["rounds"]):
            for kind in b.round_kinds(3, 42 * sz["round"] // 100, sz["round"]):
                timed.append(b.rating(int(rng.choice(writers)), kind))
            timed.append(Session(0, False, [b.rating(0, GLOBAL), b.rating(0, TASK)]))
            passive_session(900)
    else:
        warm = [b.rating(int(rng.integers(sz["pool_users"])), kind)
                for kind in b.round_kinds(0, 8 * sz["warmup"] // 20, sz["warmup"])]
        active, passive = [0, 1, 2, 3], [900, 901]
        private = {u: [] for u in passive}
        count = 0
        for _ in range(sz["rounds"]):
            for u in active:
                third = NEW if count % 3 == 0 else GLOBAL
                count += 1
                # five ratings, so the median submit is a warm repeat rather
                # than the first after the daemon sat idle or a new artist
                timed.append(Session(u, False, [
                    b.rating(u, GLOBAL), b.rating(u, TASK), b.rating(u, GLOBAL),
                    b.rating(u, TASK), b.rating(u, third)]))
            for u in passive:
                passive_session(u)

    slate = np.sort(rng.choice(min(catalog, max(b.next_item, SLATE)), size=SLATE,
                               replace=False))
    tasks = {r.task for r in pool} | {r.task for r in warm} | set(active)
    for op in timed:
        if isinstance(op, Rating):
            tasks.add(op.task)
    plan = Plan(
        features=feats,
        keys=keys,
        pool=pool,
        warmup=warm,
        timed=timed,
        slate=slate,
        tokens={t: b"tok-%d" % t for t in sorted(tasks)},
        active_users=active,
        passive_users=passive,
    )
    plan.submitted = list(pool) + list(warm)
    for op in timed:
        if isinstance(op, Rating):
            plan.submitted.append(op)
        elif not op.passive:
            plan.submitted.extend(op.ratings)
    return plan
