"""Seeded, deterministic fault injection across the whole stack.

A :class:`ChaosPlan` is the one fault plan.  With no rates set it names
``(tag, rank)`` points at which a rank dies with
:class:`SimulatedRankFailure` (``fail_at``); the rates add the failure
modes that dominate at Mira/Comet scale:

- **transient PFS errors** - any ``read``/``write``/``write_at``/
  ``append`` may raise :class:`~repro.storage.errors.TransientIOError`
  before taking effect (a Lustre/GPFS hiccup that succeeds on retry);
- **torn writes** - a rank crashes mid-write, leaving a prefix of the
  file on the PFS (:class:`TornWriteFailure`);
- **silent bit corruption** of files under a configurable prefix
  (checkpoints by default - exactly the data that integrity framing
  must catch);
- **rank death at tags**, rate-based as well as explicitly scheduled;
- **stragglers** - a per-rank clock-slowdown multiplier applied to all
  local (compute + I/O) virtual time via ``SimComm.advance``.

Determinism: every rate-based decision hashes ``(seed, kind, rank,
per-rank op index)`` - a pure function - and the rank runtime runs one
rank at a time in an order fixed by the program (see "The rank
runtime" in docs/architecture.md), so the decision points reached, the
realized fault list and the recovered virtual time repeat exactly
across executions of the same plan.  Every fault, scheduled or
rate-based, fires at most once per decision point - the plan carries
the fired-state across job restarts, mirroring a transient hardware
fault that does not recur after recovery - and at most ``max_faults``
rate-based ones fire in total, so a chaotic run always converges given
a restart budget.

Hooks are consumed by :class:`~repro.storage.base.StorageBackend`
(``chaos`` attribute) and :class:`~repro.cluster.Cluster`
(``chaos=`` argument), so any existing job can be chaos-wrapped
without code changes.
"""

from __future__ import annotations

import random
import threading
import zlib
from dataclasses import dataclass

from repro.storage.errors import TransientIOError

_HASH_SPACE = float(1 << 32)


class SimulatedRankFailure(RuntimeError):
    """An injected rank crash (stands in for a node/process fault)."""

    def __init__(self, tag: str, rank: int):
        self.tag = tag
        self.rank = rank
        super().__init__(f"injected failure of rank {rank} at {tag!r}")


class TornWriteFailure(SimulatedRankFailure):
    """A rank crash *mid-write*: only a prefix of the data landed.

    The surviving file is torn - exactly the hazard that forces
    checkpoints to be checksummed and length-framed rather than
    trusted.  Recovery-wise it is a rank death (the allocation is torn
    down and resubmitted), but it is classified separately so a failure
    log can show which restarts left partial files behind.
    """

    def __init__(self, path: str, rank: int, kept: int, total: int):
        self.path = path
        self.kept = kept
        self.total = total
        super().__init__(f"torn write of {path!r}", rank)
        # Overwrite the generic message with the torn-write specifics.
        self.args = (f"injected torn write on rank {rank}: "
                     f"{path!r} kept {kept}/{total} bytes",)


@dataclass(frozen=True)
class InjectedFault:
    """One fault the plan actually fired (or armed, for stragglers)."""

    kind: str    # "transient-io" | "torn-write" | "corruption"
    #          | "rank-death" | "straggler" | "membership-leave"
    rank: int
    where: str   # tag, or "op:path#opindex"
    detail: str = ""


class RankLeaveEvent(SimulatedRankFailure):
    """A scheduled membership departure (not a crash).

    Raised by :meth:`ChaosPlan.membership_check` when a rank's
    scheduled leave time has passed.  An elastic driver
    (:func:`repro.ft.elastic.run_elastic`) promotes it from a fatal
    restart to a gang-shrink; the plain restart driver treats it like
    a rank death.
    """

    #: Consumed by :func:`repro.ft.runner.classify_failure`.
    failure_class = "membership-leave"

    def __init__(self, tag: str, rank: int, at: float):
        super().__init__(tag, rank)
        self.at = at
        self.args = (f"scheduled leave of rank {rank} at {tag!r} "
                     f"(due t={at:g})",)


@dataclass(frozen=True)
class MembershipEvent:
    """One scheduled membership change: ``rank`` leaves/joins at ``at``.

    ``at`` is a virtual time; the event becomes *due* once the
    observing clock passes it.  A ``join`` carries no rank identity
    (the new rank gets the next id when the gang grows); a ``leave``
    names the rank that departs.
    """

    at: float
    kind: str          # "leave" | "join"
    rank: int | None = None

    def __post_init__(self):
        if self.kind not in ("leave", "join"):
            raise ValueError(
                f"membership event kind must be 'leave' or 'join', "
                f"got {self.kind!r}")
        if not self.at >= 0.0:  # also rejects NaN
            raise ValueError(
                f"membership event time must be >= 0, got {self.at!r}")
        if self.kind == "leave":
            if self.rank is None or self.rank < 0:
                raise ValueError(
                    f"leave event needs a non-negative rank, "
                    f"got {self.rank!r}")
        elif self.rank is not None:
            raise ValueError("join events assign the next rank id; "
                             f"got explicit rank {self.rank!r}")


class ChaosPlan:
    """A schedule of injectable faults: explicit deaths plus seeded rates.

    All rates are per-operation probabilities in ``[0, 1]``.  Torn
    writes and corruption only target paths under
    ``corruptible_prefix`` (checkpoints by default): tearing or
    flipping bits in an *unprotected* file - the job's input, say -
    would silently change the answer, which is a test-harness bug, not
    a survivable fault.  Transient errors, deaths and stragglers are
    fair game everywhere because they are fail-stop or timing-only.
    """

    def __init__(self, seed: int = 0, *,
                 io_error_rate: float = 0.0,
                 torn_write_rate: float = 0.0,
                 corruption_rate: float = 0.0,
                 tag_death_rate: float = 0.0,
                 stragglers: dict[int, float] | None = None,
                 membership: "list[MembershipEvent | tuple] | None" = None,
                 corruptible_prefix: str = "ckpt/",
                 max_faults: int = 8):
        for name, rate in (("io_error_rate", io_error_rate),
                           ("torn_write_rate", torn_write_rate),
                           ("corruption_rate", corruption_rate),
                           ("tag_death_rate", tag_death_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self.seed = seed
        self.io_error_rate = io_error_rate
        self.torn_write_rate = torn_write_rate
        self.corruption_rate = corruption_rate
        self.tag_death_rate = tag_death_rate
        self.stragglers = dict(stragglers or {})
        # Mid-run membership schedule, validated at construction like
        # the straggler-factor check: a malformed event is a harness
        # bug, not a survivable fault.
        events = [ev if isinstance(ev, MembershipEvent)
                  else MembershipEvent(*ev) for ev in (membership or [])]
        seen_events = set()
        for ev in events:
            point = (ev.kind, ev.rank, ev.at)
            if point in seen_events:
                raise ValueError(f"duplicate membership event {ev}")
            seen_events.add(point)
        self.membership = sorted(events, key=lambda ev: (ev.at, ev.kind))
        self._membership_fired: set[MembershipEvent] = set()
        self.corruptible_prefix = corruptible_prefix
        self.max_faults = max_faults
        self._lock = threading.Lock()
        self._deaths: set[tuple[str, int]] = set()      # from fail_at
        self._deaths_fired: set[tuple[str, int]] = set()
        self._op_index: dict[int, int] = {}     # rank -> ops seen
        self._seen_tags: set[tuple[str, int]] = set()
        self._rate_fired = 0
        self.injected: list[InjectedFault] = []
        for rank, factor in sorted(self.stragglers.items()):
            if factor < 1.0:
                raise ValueError(
                    f"straggler factor must be >= 1, got {factor}")
            self.injected.append(InjectedFault(
                "straggler", rank, "clock", f"x{factor:g}"))

    # ------------------------------------------------- deterministic dice

    def _roll(self, kind: str, rank: int, point: str, rate: float) -> bool:
        """Seeded coin flip, independent of thread interleaving."""
        if rate <= 0.0:
            return False
        key = f"{self.seed}/{kind}/{rank}/{point}".encode()
        return zlib.crc32(key) / _HASH_SPACE < rate

    def _fire(self, fault: InjectedFault) -> bool:
        """Record a rate-based fault unless the global cap is spent."""
        with self._lock:
            if self._rate_fired >= self.max_faults:
                return False
            self._rate_fired += 1
            self.injected.append(fault)
            return True

    def _next_op(self, rank: int) -> int:
        with self._lock:
            n = self._op_index.get(rank, 0)
            self._op_index[rank] = n + 1
            return n

    @staticmethod
    def _count_fault(comm) -> None:
        shard = getattr(comm, "metrics", None)
        if shard is not None:
            shard.inc("ft.faults.injected")

    # ------------------------------------------------------ rank deaths

    def fail_at(self, tag: str, rank: int) -> "ChaosPlan":
        """Schedule one explicit rank death; returns self for chaining."""
        self._deaths.add((tag, rank))
        return self

    def check(self, tag: str, rank: int) -> None:
        """Maybe kill ``rank`` at ``tag`` (explicit or rate-based)."""
        point = (tag, rank)
        with self._lock:
            if point in self._deaths and point not in self._deaths_fired:
                self._deaths_fired.add(point)
                self.injected.append(
                    InjectedFault("rank-death", rank, tag, "scheduled"))
                raise SimulatedRankFailure(tag, rank)
            if point in self._seen_tags:
                return
            self._seen_tags.add(point)
        if self._roll("death", rank, tag, self.tag_death_rate):
            if self._fire(InjectedFault("rank-death", rank, tag, "seeded")):
                raise SimulatedRankFailure(tag, rank)

    @property
    def fired(self) -> set[tuple[str, int]]:
        """Explicitly scheduled deaths that have fired."""
        with self._lock:
            return set(self._deaths_fired)

    @property
    def pending(self) -> set[tuple[str, int]]:
        """Explicitly scheduled deaths still armed."""
        with self._lock:
            return self._deaths - self._deaths_fired

    def counts(self) -> dict[str, int]:
        """Injected-fault tally by kind (stragglers excluded)."""
        tally: dict[str, int] = {}
        with self._lock:
            for fault in self.injected:
                if fault.kind == "straggler":
                    continue
                tally[fault.kind] = tally.get(fault.kind, 0) + 1
        return tally

    # ----------------------------------------------------- PFS hooks

    def on_access(self, comm, op: str, path: str) -> None:
        """Pre-operation hook for read/write_at/append (and write).

        Raises :class:`TransientIOError` *before* the operation takes
        effect; a transient fault never partially applies.
        """
        rank = comm.rank
        n = self._next_op(rank)
        where = f"{op}:{path}#{n}"
        if self._roll("transient", rank, str(n), self.io_error_rate):
            if self._fire(InjectedFault("transient-io", rank, where)):
                self._count_fault(comm)
                raise TransientIOError(op, path, rank)

    def on_write(self, comm, path: str,
                 data: bytes) -> tuple[bytes, BaseException | None]:
        """Full-write hook: transient, torn, or corrupted.

        Returns the (possibly truncated or bit-flipped) payload to
        store, plus an exception the file system must raise *after*
        storing it - a torn write leaves its prefix behind.
        """
        self.on_access(comm, "write", path)
        rank = comm.rank
        with self._lock:
            n = self._op_index.get(rank, 0) - 1  # index consumed above
        if not path.startswith(self.corruptible_prefix) or not data:
            return data, None
        if self._roll("torn", rank, str(n), self.torn_write_rate):
            kept = len(data) // 2
            fault = InjectedFault("torn-write", rank,
                                  f"write:{path}#{n}", f"kept {kept} bytes")
            if self._fire(fault):
                self._count_fault(comm)
                return data[:kept], TornWriteFailure(
                    path, rank, kept, len(data))
        if self._roll("corrupt", rank, str(n), self.corruption_rate):
            bit = zlib.crc32(f"{self.seed}/bitpos/{rank}/{n}".encode()) \
                % (len(data) * 8)
            fault = InjectedFault("corruption", rank,
                                  f"write:{path}#{n}", f"bit {bit} flipped")
            if self._fire(fault):
                self._count_fault(comm)
                mutated = bytearray(data)
                mutated[bit // 8] ^= 1 << (bit % 8)
                return bytes(mutated), None
        return data, None

    # -------------------------------------------------- cluster hook

    def slowdown_for(self, rank: int) -> float:
        """Clock multiplier for ``rank`` (1.0 = healthy)."""
        return self.stragglers.get(rank, 1.0)

    # ---------------------------------------------------- membership hooks

    def membership_check(self, comm, tag: str) -> None:
        """Raise :class:`RankLeaveEvent` if this rank's leave is due.

        Called from job probe points (next to :meth:`check`): a leave
        scheduled at virtual time ``t`` fires at the first probe the
        rank reaches with its clock past ``t``.  Fires at most once.
        """
        for ev in self.membership:
            if ev.kind != "leave" or ev.rank != comm.rank:
                continue
            if comm.clock.time < ev.at:
                continue
            with self._lock:
                if ev in self._membership_fired:
                    continue
                self._membership_fired.add(ev)
                self.injected.append(InjectedFault(
                    "membership-leave", comm.rank, tag, f"due t={ev.at:g}"))
            raise RankLeaveEvent(tag, comm.rank, ev.at)

    def membership_due(self, now: float, *,
                       nranks: int | None = None) -> list[MembershipEvent]:
        """Consume every not-yet-fired event due by virtual time ``now``.

        The gang-boundary flavour of :meth:`membership_check`: an
        elastic driver sweeps this between launches to apply joins (and
        leaves whose rank never reached a probe, or that no longer
        exists after earlier shrinks - those are reported with
        ``rank=None`` semantics by the caller).
        """
        due: list[MembershipEvent] = []
        with self._lock:
            for ev in self.membership:
                if ev.at > now or ev in self._membership_fired:
                    continue
                if ev.kind == "leave" and nranks is not None \
                        and ev.rank is not None and ev.rank >= nranks:
                    # The target rank id no longer exists; mark it
                    # spent so it cannot fire against a future join.
                    self._membership_fired.add(ev)
                    continue
                self._membership_fired.add(ev)
                due.append(ev)
        return due

    def remove_rank(self, rank: int) -> None:
        """Renumber per-rank state after ``rank`` left the gang.

        Rank ids above the departed rank shift down by one (the next
        launch numbers the survivors densely), so straggler factors
        must follow their *host*: the departed entry disappears - a
        straggling rank that dies or is evicted takes its slowness with
        it - and higher entries slide down.  Explicitly scheduled
        deaths and membership events keep their rank indices: they
        model faults at gang *positions*, matching how the harnesses
        seed them.
        """
        self.stragglers = {
            (r if r < rank else r - 1): factor
            for r, factor in self.stragglers.items() if r != rank
        }

    # ------------------------------------------------------ factories

    @classmethod
    def random(cls, seed: int, nranks: int, *,
               tags: tuple[str, ...] = (),
               intensity: float = 1.0,
               membership: bool = False,
               max_faults: int = 6) -> "ChaosPlan":
        """A mixed random schedule: deaths, I/O faults, stragglers.

        ``seed`` fully determines the schedule.  ``intensity`` scales
        every rate; ``tags`` optionally adds explicit deaths at points
        the target job is known to expose.  ``membership`` additionally
        schedules a seeded mid-run rank leave (and, half the time, a
        later join); the draws happen after the classic ones, so plans
        without membership keep their historical schedules seed for
        seed.
        """
        rng = random.Random(seed)
        stragglers = {
            rank: round(rng.uniform(1.5, 4.0), 2)
            for rank in range(nranks) if rng.random() < 0.25
        }
        kwargs = dict(
            seed=seed,
            io_error_rate=min(1.0, rng.choice([0.0, 0.02, 0.05]) * intensity),
            torn_write_rate=min(1.0, rng.choice([0.0, 0.1, 0.3]) * intensity),
            corruption_rate=min(1.0, rng.choice([0.0, 0.1, 0.3]) * intensity),
            tag_death_rate=min(1.0, rng.choice([0.0, 0.1, 0.2]) * intensity),
            stragglers=stragglers,
            max_faults=max_faults,
        )
        death = rng.choice(tags) if tags and rng.random() < 0.5 else None
        death_rank = rng.randrange(nranks) if death is not None else 0
        if membership and nranks > 1:
            events = [MembershipEvent(round(rng.uniform(0.0, 0.05), 4),
                                      "leave", rng.randrange(nranks))]
            if rng.random() < 0.5:
                events.append(MembershipEvent(
                    round(rng.uniform(0.05, 0.2), 4), "join"))
            kwargs["membership"] = events
        plan = cls(**kwargs)
        if death is not None:
            plan.fail_at(death, death_rank)
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ChaosPlan(seed={self.seed}, io={self.io_error_rate}, "
                f"torn={self.torn_write_rate}, "
                f"corrupt={self.corruption_rate}, "
                f"death={self.tag_death_rate}, "
                f"stragglers={self.stragglers}, "
                f"injected={len(self.injected)})")
