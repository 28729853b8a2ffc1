"""Job model shared by the workloads.

A job is one call into hopfsplit with a known answer.  `run` is the timed
part; `check` runs after the pass, compares the result with the answer the
paper or a standard fact gives, and returns the text whose sha256 is the
job's golden digest.  `prep` (optional) writes a job's input files from
outputs of earlier jobs; it runs inside the pass but outside the job's
timing.
"""
from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field
from typing import Callable

ACCEPT = "accept"  # the known answer is positive
REJECT = "reject"  # the known answer is a mathematical negative


@dataclass
class Raised:
    """A job's `run` raised; the check decides whether that was expected."""

    exc: BaseException

    @property
    def tb(self) -> str:
        return "".join(traceback.format_exception(self.exc))


@dataclass
class Job:
    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], str | None]]
    prep: Callable[[], None] | None = None


@dataclass
class Outcome:
    name: str
    kind: str
    seconds: float
    problems: list[str] = field(default_factory=list)
    digest: str | None = None


def call(job: Job):
    """Run a job's timed part, turning an exception into a `Raised`."""
    try:
        return job.run()
    except Exception as e:  # the check judges it; the pass goes on
        return Raised(e)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def expect_raise(res, exc_type, needle: str) -> list[str]:
    """Problems unless `res` is a raised `exc_type` whose message holds `needle`."""
    if not isinstance(res, Raised):
        return [f"expected {exc_type.__name__}, got a result"]
    if not isinstance(res.exc, exc_type):
        return [f"expected {exc_type.__name__}, got {type(res.exc).__name__}: {res.exc}"]
    if needle not in str(res.exc):
        return [f"{exc_type.__name__} does not name {needle!r}: {res.exc}"]
    return []


def unexpected(res) -> list[str]:
    """Problems if a job that should return raised instead."""
    if isinstance(res, Raised):
        return [f"raised {type(res.exc).__name__}: {res.exc}\n{res.tb}"]
    return []
