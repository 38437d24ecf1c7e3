"""``repro.errors`` — the shared typed error taxonomy.

Every failure the library can report deliberately is an instance of
:class:`ReproError`, so callers (the CLI, :mod:`repro.serve`, user code)
can write one ``except ReproError`` and branch on type instead of
pattern-matching message strings:

====================  ===========================================  =====
class                 meaning                                      exit
====================  ===========================================  =====
InvalidInput          caller passed nonsense (bad counts, unknown  2
                      device, bad mode string, ...)
InfeasiblePlacement   the model says "no": no feasible PRR exists  3
ParseError            external input (``.syr`` text, trace JSON)   4
                      could not be parsed
DeadlineExceeded      a time budget ran out before any result      5
                      existed (anytime paths return degraded
                      results instead of raising)
Overloaded            a bounded queue shed the request; retry       6
                      after ``retry_after_s``
BackendBroken         a worker pool / subprocess backend died and   7
                      recovery was exhausted
====================  ===========================================  =====

Exit code 8 is retired: it belonged to a missing-dependency error, and
every dependency is now a hard requirement.  The other codes keep their
numbers.

Back-compat is part of the contract: the taxonomy *multiply inherits*
from the stdlib types the library used to raise (``InvalidInput`` is a
``ValueError``, ``InfeasiblePlacement`` a ``LookupError``, ``ParseError``
a ``ValueError``), so pre-existing ``except ValueError`` call sites and
tests keep working unchanged.

``retryable`` tells a serving layer whether re-submitting the identical
request can ever succeed (``Overloaded``/``BackendBroken`` yes;
``InvalidInput``/``InfeasiblePlacement`` no).
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "ReproError",
    "InvalidInput",
    "InfeasiblePlacement",
    "ParseError",
    "DeadlineExceeded",
    "Overloaded",
    "BackendBroken",
]


class ReproError(Exception):
    """Base of the typed taxonomy.

    ``code`` is a stable machine-readable slug (CLI prefixes messages
    with it), ``exit_code`` the process exit status the CLI maps the
    error to, and ``retryable`` whether re-submitting the same request
    later can succeed.
    """

    code: str = "error"
    exit_code: int = 1
    retryable: bool = False

    def __init__(self, message: str = "", **details: Any) -> None:
        super().__init__(message)
        self.message = message
        self.details = details

    def __str__(self) -> str:  # KeyError quotes its args; bypass that
        return self.message

    def describe(self) -> str:
        """``code: message [k=v ...]`` — the CLI's one-line rendering."""
        extras = " ".join(
            f"{key}={value!r}"
            for key, value in sorted(self.details.items())
            if value is not None
        )
        text = f"{self.code}: {self.message}"
        return f"{text} [{extras}]" if extras else text


class InvalidInput(ReproError, ValueError):
    """The caller's request can never succeed as stated.

    Where a closed set of valid choices exists (device names, explore
    modes) the message lists them.
    """

    code = "invalid_input"
    exit_code = 2


class InfeasiblePlacement(ReproError, LookupError):
    """The cost model proved no feasible PRR/geometry exists.

    Not an input error: the request was well-formed, the fabric just
    cannot host it.  ``repro.core.placement_search.PlacementNotFoundError``
    subclasses this, so existing handlers keep working.
    """

    code = "infeasible_placement"
    exit_code = 3


class ParseError(ReproError, ValueError):
    """External text (a ``.syr`` report, a trace file) failed to parse.

    ``line_no`` (1-based) and ``line`` pin the offending input when the
    failure is attributable to one line.
    """

    code = "parse_error"
    exit_code = 4

    def __init__(
        self,
        message: str = "",
        *,
        line_no: int | None = None,
        line: str | None = None,
        **details: Any,
    ) -> None:
        if line_no is not None:
            message = f"line {line_no}: {message}"
        if line is not None:
            preview = line if len(line) <= 120 else line[:117] + "..."
            message = f"{message} (offending text: {preview!r})"
        super().__init__(message, **details)
        self.line_no = line_no
        self.line = line


class DeadlineExceeded(ReproError):
    """A deadline expired before *any* result existed.

    Anytime paths (``explore(..., deadline_s=...)``) prefer returning a
    degraded result over raising; this error is for hard boundaries —
    a queued request whose budget elapsed before service began.
    """

    code = "deadline_exceeded"
    exit_code = 5
    retryable = True

    def __init__(
        self,
        message: str = "",
        *,
        deadline_s: float | None = None,
        elapsed_s: float | None = None,
        **details: Any,
    ) -> None:
        super().__init__(
            message, deadline_s=deadline_s, elapsed_s=elapsed_s, **details
        )
        self.deadline_s = deadline_s
        self.elapsed_s = elapsed_s


class Overloaded(ReproError):
    """A bounded queue shed the request (backpressure).

    ``retry_after_s`` is the server's hint for when capacity is likely
    to exist again.
    """

    code = "overloaded"
    exit_code = 6
    retryable = True

    def __init__(
        self,
        message: str = "",
        *,
        retry_after_s: float | None = None,
        queue_depth: int | None = None,
        **details: Any,
    ) -> None:
        super().__init__(
            message, retry_after_s=retry_after_s, queue_depth=queue_depth, **details
        )
        self.retry_after_s = retry_after_s
        self.queue_depth = queue_depth


class BackendBroken(ReproError, RuntimeError):
    """A worker backend (a cluster shard process) failed unrecoverably.

    Raised for a shard failure outside the typed taxonomy; ``cause``
    carries the underlying error's code or text.
    """

    code = "backend_broken"
    exit_code = 7
    retryable = True

    def __init__(self, message: str = "", *, cause: str | None = None, **details: Any) -> None:
        super().__init__(message, cause=cause, **details)
        self.cause = cause

