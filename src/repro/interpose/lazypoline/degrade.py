"""Graceful degradation: keep interposing when the environment is hostile.

The paper assumes its best case: ``mmap_min_addr = 0`` (the VA-0 nop sled
is mappable), every setup ``mmap``/``mprotect`` succeeds, and signal
nesting never exhausts the per-task %gs stacks.  Real deployments violate
all three — nexpoline exists largely because page-0 mapping is often
forbidden — so lazypoline here carries a :class:`DegradeController` with
three explicit modes, strictly ordered by capability:

``FULL_HYBRID``
    The paper's design: SUD slow path + lazy binary rewriting through the
    VA-0 sled.  Requires the fixed VA-0 mapping.
``SUD_ONLY``
    Selector-only interposition: every syscall takes the SIGSYS slow path
    and is redirected into the (relocated) generic handler; no rewriting,
    no sled.  Still exhaustive and expressive — merely slower.  This is
    what lazypoline degrades to when VA 0 is denied (``-EPERM`` from
    ``mmap_min_addr``, or injected ``-ENOMEM``), or at runtime when enough
    rewrite sites have been blacklisted that patching is evidently futile.
``PASSTHROUGH``
    Nothing armed; the guest runs bare.  Interposition is lost but the
    workload survives.  Only reachable when the policy floor explicitly
    allows it — by default attach fails with ``AttachError`` instead.

Transitions are one-way (degrade only), recorded on the controller, and
emitted as obs ``degrade`` events when a tracer is attached;
``rewrite_blacklist`` and ``fallback`` events make the smaller absorbed
faults (retry-then-give-up rewrites, sigreturn-stack spills) visible the
same way.  ``Tracer.health()`` summarises all of it for a run.

Guest-visible behaviour must be identical in every mode — that is exactly
what the ``repro.faults`` differential scenarios assert.

Known bound: the %gs *xstate* stack (``gsrel.XSTACK_DEPTH`` xsave areas)
cannot spill — the fast-path assembly indexes it directly — so exhaustion
there is always converted to a clean guest ``SIGSEGV`` (the real kernel's
``force_sigsegv`` on an unpushable signal frame), never a host exception,
regardless of ``depth_overflow``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.interpose.lazypoline.gsrel import SIGRET_STACK_SLOTS


class Mode(Enum):
    """Capability modes, best to worst; see the module docstring."""

    FULL_HYBRID = "full_hybrid"
    SUD_ONLY = "sud_only"
    PASSTHROUGH = "passthrough"

    @property
    def rank(self) -> int:
        """Position on the degradation ladder (0 = most capable)."""
        return _ORDER.index(self)


_ORDER = (Mode.FULL_HYBRID, Mode.SUD_ONLY, Mode.PASSTHROUGH)


def _as_mode(value) -> Mode:
    if isinstance(value, Mode):
        return value
    return Mode(str(value).lower())


@dataclass(frozen=True)
class DegradePolicy:
    """How far and how eagerly a tool may degrade.

    The defaults match the paper's availability stance: losing the fast
    path is acceptable (``floor=SUD_ONLY``), losing interposition is not.
    """

    #: Worst mode the controller may fall to.  ``FULL_HYBRID`` restores the
    #: historical fail-hard behaviour; ``PASSTHROUGH`` prefers a running
    #: guest over interposition.
    floor: Mode = Mode.SUD_ONLY

    #: Transient (EINTR/EAGAIN/ENOMEM) mprotect failures retried per
    #: rewrite attempt before the attempt counts as failed.
    rewrite_retries: int = 2

    #: Simulated cycles charged for the first retry backoff; doubles per
    #: retry (so attempt ``n`` burns ``retry_backoff << n`` cycles).
    retry_backoff: int = 40

    #: Failed rewrite *attempts* (post-retry) before a site is pinned to
    #: the slow path forever.
    site_blacklist_after: int = 3

    #: Blacklisted sites before the controller concludes rewriting is
    #: futile process-wide and demotes FULL_HYBRID -> SUD_ONLY at runtime.
    demote_after_blacklisted: int = 8

    #: Nested-signal depth at which the sigreturn selector stack is
    #: considered exhausted.
    signal_depth_limit: int = SIGRET_STACK_SLOTS

    #: What exhaustion does: ``"fault"`` delivers a clean SIGSEGV-style
    #: guest fault (the kernel's force_sigsegv analogue); ``"spill"``
    #: chains overflow pages and keeps going.
    depth_overflow: str = "fault"

    def __post_init__(self):
        object.__setattr__(self, "floor", _as_mode(self.floor))
        if self.depth_overflow not in ("fault", "spill"):
            raise ValueError(
                f"depth_overflow must be 'fault' or 'spill', "
                f"got {self.depth_overflow!r}"
            )


def as_degrade_policy(value) -> DegradePolicy:
    """Coerce the ``attach(degrade_policy=...)`` argument.

    Accepts ``None`` (defaults), a :class:`DegradePolicy`, a
    :class:`Mode`/string naming just the floor, or a dict of field
    overrides.
    """
    if value is None:
        return DegradePolicy()
    if isinstance(value, DegradePolicy):
        return value
    if isinstance(value, (Mode, str)):
        return DegradePolicy(floor=_as_mode(value))
    if isinstance(value, dict):
        return DegradePolicy(**value)
    raise TypeError(f"cannot interpret degrade_policy={value!r}")


class DegradeController:
    """Tracks the current mode and every absorbed fault for one tool."""

    def __init__(self, kernel, policy: DegradePolicy, *, mechanism: str):
        self.kernel = kernel
        self.policy = policy
        self.mechanism = mechanism
        self.mode = Mode.FULL_HYBRID
        #: (clock, old Mode, new Mode, reason) per transition
        self.transitions: list[tuple[int, Mode, Mode, str]] = []
        #: failed rewrite attempts per site
        self.site_failures: dict[int, int] = {}
        #: sites pinned to the slow path
        self.blacklist: set[int] = set()
        self.rewrite_failures = 0
        self.depth_overflows = 0
        self.spills = 0

    # ------------------------------------------------------------- queries
    @property
    def allows_rewrite(self) -> bool:
        return self.mode is Mode.FULL_HYBRID

    # -------------------------------------------------------- transitions
    def degrade_to(self, mode: Mode, reason: str, *, tid: int = -1) -> bool:
        """Move down the ladder.  Returns False if the policy floor forbids
        it (the caller must then fail the operation instead)."""
        if mode.rank <= self.mode.rank:
            return True  # already there or better
        if mode.rank > self.policy.floor.rank:
            return False
        old, self.mode = self.mode, mode
        self.transitions.append((self.kernel.clock, old, mode, reason))
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.degrade(
                self.kernel.clock, tid, self.mechanism,
                old.value, mode.value, reason,
            )
        return True

    # ----------------------------------------------------- absorbed faults
    def note_fallback(self, stage: str, *, tid: int = -1, **detail) -> None:
        """A recoverable fault was absorbed without a mode change."""
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.fallback(self.kernel.clock, tid, stage, detail)

    def note_rewrite_failure(self, site: int, err: int, *, tid: int = -1) -> bool:
        """One failed (post-retry) rewrite attempt.  Returns True when the
        site just crossed into the blacklist."""
        from repro.kernel.errno import errno_name

        self.rewrite_failures += 1
        count = self.site_failures.get(site, 0) + 1
        self.site_failures[site] = count
        self.note_fallback(
            "rewrite", tid=tid, site=site, errno=err, attempt=count
        )
        if count < self.policy.site_blacklist_after or site in self.blacklist:
            return False
        self.blacklist.add(site)
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.rewrite_blacklist(
                self.kernel.clock, tid, site, self.mechanism, errno_name(err)
            )
        if len(self.blacklist) >= self.policy.demote_after_blacklisted:
            self.degrade_to(
                Mode.SUD_ONLY,
                f"{len(self.blacklist)} sites blacklisted: rewriting is futile",
                tid=tid,
            )
        return True

    def note_spill(self, *, tid: int = -1, depth: int = 0) -> None:
        self.spills += 1
        self.note_fallback("sigret_spill", tid=tid, depth=depth)

    def note_depth_overflow(self, *, tid: int = -1, depth: int = 0,
                            stack: str = "sigreturn") -> None:
        self.depth_overflows += 1
        self.note_fallback("depth_overflow", tid=tid, depth=depth, stack=stack)

    # ------------------------------------------------------------- summary
    def health(self) -> dict:
        """Controller-side degradation summary (tracer-independent)."""
        return {
            "mode": self.mode.value,
            "transitions": [
                {"ts": ts, "old": old.value, "new": new.value, "reason": r}
                for ts, old, new, r in self.transitions
            ],
            "rewrite_failures": self.rewrite_failures,
            "blacklisted_sites": sorted(self.blacklist),
            "depth_overflows": self.depth_overflows,
            "spills": self.spills,
        }
