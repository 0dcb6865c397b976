"""The simulated load-balancer front-end.

A :class:`LoadBalancer` maps a stream of request keys onto shard indices
*before* any shard boots: the cluster plans the whole request schedule up
front, hands each shard its slice, and lets the shards run concurrently
(each in its own host process, each with its own wrk client).  That keeps
the balancer a pure function of ``(shards, policy, request stream)`` — no
cross-process chatter, so cluster results stay exactly as deterministic
as a single-machine run.

Three policies, mirroring the classic L4 front-end choices:

``round_robin``
    Rotate through the shards.  The reference policy: perfectly even
    split, used by the scaling benchmark.

``least_conn``
    Greedy least-outstanding-connections with a deterministic service
    model: each request occupies its shard for ``service_ticks``
    assignment ticks (default = shard count, i.e. service rate matches
    arrival rate).  With homogeneous simulated shards this converges to
    an even split — the point is exercising the accounting path the
    policy needs, not a different steady state.

``consistent_hash``
    FNV-1a hashing of the request key onto a ring of ``vnodes`` virtual
    nodes per shard.  Deliberately *not* Python's builtin ``hash`` —
    that is salted per process and would break cross-process
    determinism.  Splits are uneven by design (cache-affinity routing
    trades balance for key stickiness).

Sessions couple the policies to shared backend state.  With
``plan(requests, sessions=S)`` every request ``i`` belongs to session
``session_of(i, S)`` and the balancer classifies each assignment as a
session *hit* (the session's state already lives on the chosen shard), a
cold *miss* (first request of the session anywhere) or a *migration*
(the state lives on a different shard and must move).  ``consistent_hash``
routes by the session key, so a session is sticky to one shard and never
migrates; ``round_robin`` sprays sessions across the fleet and pays a
migration on nearly every request; ``least_conn`` feeds the penalty back
into its own accounting — a miss occupies the shard for
``miss_penalty`` service intervals instead of one, so miss-heavy shards
shed load.  The cluster turns each miss or migration in
:attr:`LoadBalancer.session_events` into a user-space cycle surcharge on
the serving shard, which is how the policies come to differ in
throughput and latency, not just in counts.
"""

from __future__ import annotations

from bisect import bisect_left

POLICIES = ("round_robin", "least_conn", "consistent_hash")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a(data: bytes) -> int:
    """64-bit FNV-1a + avalanche finalizer: stable across processes
    (unlike builtin ``hash``, which is salted per process).

    Raw FNV-1a clusters short keys with a shared prefix (``req-0``,
    ``req-1``, ...) into a narrow band of the 64-bit space, which would
    collapse the consistent-hash ring onto one shard; the splitmix64
    finalizer spreads them uniformly.
    """
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    # splitmix64 finalizer
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return h ^ (h >> 31)


def session_of(index: int, sessions: int) -> int:
    """The session request ``index`` belongs to — a stable hash, not a
    modulo of the index, so consecutive requests hop between sessions the
    way interleaved client connections do."""
    return fnv1a(f"req-{index}".encode()) % sessions


class LoadBalancer:
    """Deterministic request-to-shard assignment under one policy."""

    def __init__(
        self,
        shards: int,
        policy: str = "round_robin",
        *,
        vnodes: int = 64,
        service_ticks: int | None = None,
        miss_penalty: int = 2,
    ):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown balancing policy {policy!r}; "
                f"choose from {', '.join(POLICIES)}"
            )
        self.shards = shards
        self.policy = policy
        self.assignments: list[int] = []
        #: per-assignment "hit"/"miss"/"migrate", or None outside sessions
        self.session_events: list[str | None] = []
        #: shards currently excluded from routing (health model feed);
        #: empty (the default) leaves every policy's behavior untouched
        self._down: set[int] = set()
        self._tick = 0
        # sessions: shard currently holding each session's backend state
        self._session_home: dict[int, int] = {}
        self._miss_penalty = miss_penalty
        # round_robin
        self._next = 0
        # least_conn
        self._service_ticks = service_ticks or shards
        self._in_flight: list[list[int]] = [[] for _ in range(shards)]
        # consistent_hash: sorted ring of (point, shard)
        self._ring: list[tuple[int, int]] = sorted(
            (fnv1a(f"shard-{s}:vnode-{v}".encode()), s)
            for s in range(shards)
            for v in range(vnodes)
        )
        self._points = [p for p, _ in self._ring]

    # ------------------------------------------------------------- assignment
    def assign(self, key: str | int | None = None, *,
               session: int | None = None) -> int:
        """Route one request; ``key`` only matters for ``consistent_hash``.

        With ``session`` set, ``consistent_hash`` routes by the session
        (sticky), the assignment is classified hit/miss/migrate against
        the session's current home shard, and ``least_conn`` charges the
        miss penalty into its occupancy model.
        """
        if len(self._down) >= self.shards:
            raise RuntimeError("no live shard to route to")
        tick = self._tick
        self._tick = tick + 1
        if self.policy == "round_robin":
            shard = self._next
            while shard in self._down:
                shard = (shard + 1) % self.shards
            self._next = (shard + 1) % self.shards
        elif self.policy == "least_conn":
            shard = self._pick_least_conn(tick)
        elif session is not None:
            shard = self._assign_hash(f"session-{session}")
        else:
            shard = self._assign_hash(key if key is not None else tick)
        event = self._touch_session(session, shard)
        if self.policy == "least_conn":
            intervals = self._miss_penalty if event in ("miss", "migrate") \
                else 1
            self._in_flight[shard].append(
                tick + self._service_ticks * intervals
            )
        self.assignments.append(shard)
        self.session_events.append(event)
        return shard

    def _pick_least_conn(self, tick: int) -> int:
        for queue in self._in_flight:
            while queue and queue[0] <= tick:
                queue.pop(0)
        return min(
            (s for s in range(self.shards) if s not in self._down),
            key=lambda s: (len(self._in_flight[s]), s),
        )

    def _touch_session(self, session: int | None, shard: int) -> str | None:
        if session is None:
            return None
        home = self._session_home.get(session)
        self._session_home[session] = shard
        if home == shard:
            return "hit"
        return "miss" if home is None else "migrate"

    def _assign_hash(self, key) -> int:
        point = fnv1a(str(key).encode())
        i = bisect_left(self._points, point)
        if i == len(self._points):
            i = 0
        if not self._down:
            return self._ring[i][1]
        # walk the ring clockwise to the first live shard — the classic
        # consistent-hash failover: only keys homed on a dead shard move
        for step in range(len(self._ring)):
            shard = self._ring[(i + step) % len(self._ring)][1]
            if shard not in self._down:
                return shard
        raise RuntimeError("no live shard to route to")

    # --------------------------------------------------------------- planning
    def plan(self, requests: int, *, sessions: int = 0) -> list[int]:
        """Assign ``requests`` sequential request ids; return per-shard
        counts.  The full assignment order stays in :attr:`assignments`.

        With ``sessions > 0`` each request is routed and classified under
        its :func:`session_of` session; ``sessions=0`` is the sessionless
        legacy behavior, assignment-for-assignment identical to before.
        """
        counts = [0] * self.shards
        for i in range(requests):
            sid = session_of(i, sessions) if sessions else None
            counts[self.assign(f"req-{i}", session=sid)] += 1
        return counts

    # ---------------------------------------------------- failover re-planning
    def set_down(self, down: set[int]) -> None:
        """Exclude ``down`` shards from subsequent assignments (health
        model feed).  An empty set restores the original behavior."""
        if len(down) >= self.shards:
            raise RuntimeError(
                f"all {self.shards} shards down; nothing to route to"
            )
        self._down = set(down)

    def replan(self, request_ids: list[int], *,
               sessions: int = 0) -> list[tuple[int, int]]:
        """Incrementally re-plan failed requests onto live shards.

        ``request_ids`` are *original* request indices (so retried
        requests keep their identity — and their session, which the
        re-route classifies with the usual hit/miss/migrate accounting:
        a session homed on a dead shard migrates).  Returns
        ``(request_id, shard)`` pairs in id order; the assignments are
        appended to :attr:`assignments`/:attr:`session_events` like any
        other, so :meth:`session_stats` covers failover traffic too.
        """
        routed = []
        for i in request_ids:
            sid = session_of(i, sessions) if sessions else None
            routed.append((i, self.assign(f"req-{i}", session=sid)))
        return routed

    def session_stats(self) -> dict:
        """Aggregate hit/miss/migration counts over all assignments."""
        hits = self.session_events.count("hit")
        misses = self.session_events.count("miss")
        migrations = self.session_events.count("migrate")
        routed = hits + misses + migrations
        return {
            "distinct_sessions": len(self._session_home),
            "hits": hits,
            "misses": misses,
            "migrations": migrations,
            "sticky_ratio": round(hits / routed, 4) if routed else 0.0,
        }
