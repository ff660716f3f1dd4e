"""Errors raised by storage backends, plus retry glue.

The paper's target machines (Comet/Lustre, Mira/GPFS behind I/O
forwarding) fail in more ways than "a node died": metadata servers
time out, OSTs drop requests under load, and a client sees a transient
``EIO`` that succeeds on the next attempt.  This module gives those
conditions first-class types so callers can tell a *retryable* hiccup
(:class:`TransientIOError`) from a permanent one
(:class:`PFSFileNotFoundError`), and provides :func:`retrying` - a
bounded exponential-backoff wrapper whose waiting is charged to the
calling rank's *virtual* clock, so retried I/O shows up in ``elapsed``
exactly like it would on a wall clock.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

T = TypeVar("T")

#: Default retry policy for PFS operations (see :func:`retrying`).
DEFAULT_RETRY_ATTEMPTS = 4
DEFAULT_RETRY_BASE_DELAY = 1e-3
DEFAULT_RETRY_FACTOR = 2.0


class PFSError(RuntimeError):
    """Base class for simulated parallel-file-system failures."""


class PFSFileNotFoundError(PFSError, KeyError):
    """A named path does not exist on the PFS.

    Subclasses :class:`KeyError` so legacy ``except KeyError`` handlers
    (and tests) keep working, but carries the path and a readable
    message instead of surfacing a bare mapping error from deep inside
    a rank thread.
    """

    def __init__(self, path: str, hint: str = ""):
        self.path = path
        msg = f"no such file on the PFS: {path!r}"
        if hint:
            msg = f"{msg} ({hint})"
        # KeyError repr()s its lone arg; RuntimeError str()s it.  Store
        # the message once and override __str__ for both bases.
        self._msg = msg
        super().__init__(msg)

    def __str__(self) -> str:
        return self._msg


class TransientIOError(PFSError):
    """A retryable PFS failure (timeout, dropped request, EIO).

    Raised by the chaos-injection layer before the operation takes
    effect: a transient error never partially applies a write.
    """

    def __init__(self, op: str, path: str, rank: int | None = None):
        self.op = op
        self.path = path
        self.rank = rank
        who = f" on rank {rank}" if rank is not None else ""
        super().__init__(f"transient PFS error during {op}({path!r}){who}")


class RetriesExhaustedError(PFSError):
    """A transient error persisted past the bounded retry budget.

    Deliberately *not* a :class:`TransientIOError` subclass: an
    exhausted budget must escalate (to a classified job restart), never
    be swallowed by an outer retry loop.
    """

    def __init__(self, attempts: int, last: TransientIOError):
        self.attempts = attempts
        self.last = last
        super().__init__(
            f"PFS operation failed after {attempts} attempts: {last}")


def retrying(comm: Any, fn: Callable[[], T], *,
             attempts: int = DEFAULT_RETRY_ATTEMPTS,
             base_delay: float = DEFAULT_RETRY_BASE_DELAY,
             factor: float = DEFAULT_RETRY_FACTOR,
             on_retry: Callable[[int, TransientIOError], None] | None = None,
             ) -> T:
    """Call ``fn()`` retrying :class:`TransientIOError` with backoff.

    The backoff delay (``base_delay * factor**k`` before attempt
    ``k+2``) is charged to ``comm``'s virtual clock, so a fault-heavy
    run is visibly slower than a clean one.  ``on_retry(attempt, exc)``
    fires for every *absorbed* error - the final, budget-exhausting
    error is not reported there; it escalates as
    :class:`RetriesExhaustedError` instead.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    delay = base_delay
    for attempt in range(1, attempts + 1):
        try:
            return fn()
        except TransientIOError as exc:
            if attempt == attempts:
                raise RetriesExhaustedError(attempts, exc) from exc
            shard = getattr(comm, "metrics", None)
            if shard is not None:
                shard.inc("storage.retries")
            if on_retry is not None:
                on_retry(attempt, exc)
            comm.advance(delay)
            delay *= factor
    raise AssertionError("unreachable")
