"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without catching unrelated bugs.

Every class here pickle-round-trips losslessly (type, message, and extra
attributes such as ``site``/``attempt``).  The process-pool executor relies
on this: a worker's typed failure crosses the process boundary intact
instead of degrading to an opaque ``RuntimeError``, so the parent's retry
and degradation logic sees exactly what the serial path would have seen.
Classes whose ``__init__`` stores state outside ``args`` define
``__reduce__`` accordingly.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CircuitError(ReproError):
    """Malformed circuit construction (bad qubit index, arity mismatch, ...)."""


class GateError(CircuitError):
    """Unknown gate name or invalid gate parameters."""


class SimulationError(ReproError):
    """Simulator-level failure (non-normalised state, bad shape, ...)."""


class NoiseError(ReproError):
    """Invalid noise channel or noise model configuration."""


class BackendError(ReproError):
    """Backend cannot execute the requested job (too many qubits, ...)."""


class TransientBackendError(BackendError):
    """A backend failure expected to succeed on retry (queue hiccup, lost
    job, injected fault).  Carries the execution ``site`` — the
    (fragment, variant)-style key the retry engine uses — and the attempt
    number when known, so ledgers and error messages can pinpoint it.
    """

    def __init__(self, message: str = "", site=None, attempt=None) -> None:
        super().__init__(message)
        self.site = site
        self.attempt = attempt

    def __reduce__(self):
        # site/attempt live outside args; rebuild with them so pickling
        # across the process-pool boundary keeps the retry engine's context
        return (
            type(self),
            (self.args[0] if self.args else "", self.site, self.attempt),
        )


class CorruptedResultError(TransientBackendError):
    """An :class:`~repro.backends.base.ExecutionResult` payload failed
    boundary validation (counts key outside ``2^n``, negative count, shot
    total mismatch).  Retryable: re-executing the variant re-samples.
    """


class RetryExhaustedError(BackendError):
    """A variant kept failing through every attempt the policy allowed."""

    def __init__(self, message: str = "", site=None) -> None:
        super().__init__(message)
        self.site = site

    def __reduce__(self):
        return (type(self), (self.args[0] if self.args else "", self.site))


class DeadlineExceededError(BackendError):
    """The retry policy's wall-clock (modelled-seconds) budget ran out."""


class CircuitBreakerOpenError(BackendError):
    """Too many consecutive failures on one fragment; failing fast."""


class WorkerPoolError(BackendError):
    """A process-pool worker died (killed, crashed or out of memory) while
    fragment tasks were in flight.  The broken pool is discarded, so the
    next process-mode call starts a fresh one."""


class ServiceClosedError(ReproError):
    """A request reached a :class:`~repro.parallel.service.CutRunService`
    after :meth:`~repro.parallel.service.CutRunService.close`, or was still
    pending when the service closed."""


class TranspileError(ReproError):
    """Circuit cannot be lowered to the target device."""


class CutError(ReproError):
    """Invalid cut specification (cyclic fragments, unknown wire, ...)."""


class ReconstructionError(ReproError):
    """Fragment data is inconsistent with the requested reconstruction."""


class DetectionError(ReproError):
    """Golden-cut detection was asked for data it does not have."""
