"""Exception hierarchy shared across the package.

Every error raised on bad input or a failed precondition derives from
ProbFramesError so callers (and the CLI) can distinguish validation
failures from genuine bugs. A broken guarantee of the package itself
raises InternalInvariantError, which deliberately stands outside that
hierarchy.
"""


class ProbFramesError(Exception):
    """Base class for all validation and precondition errors."""


class NonSymmetric(ProbFramesError):
    """Matrix handed to a symmetric-only routine is not symmetric."""


class Singular(ProbFramesError):
    """Matrix is numerically singular (pivot below threshold)."""


class BadWeights(ProbFramesError):
    """Weights are nonpositive or do not sum to one."""


class DimMismatch(ProbFramesError):
    """Arrays disagree on ambient dimension or atom count."""


class MissingImage(ProbFramesError):
    """A pushforward map does not supply an image for every atom."""


class NotAFrame(ProbFramesError):
    """Measure has a singular frame operator where a frame is required."""


class MarginalMismatch(ProbFramesError):
    """Coupling plan marginals disagree with the declared measures."""


class Unsupported(ProbFramesError):
    """Input falls outside a routine's supported regime."""


class DeviationTooLarge(ProbFramesError):
    """Mixed-operator deviation from the identity is not below one."""


class NotApproximate(ProbFramesError):
    """Coupling is not an approximate dual pair."""


class NotExactDual(ProbFramesError):
    """Coupling is not an exact dual pair."""


class SingularMixedOperator(ProbFramesError):
    """Mixed frame operator of a coupling is not invertible."""


class SourceMismatch(ProbFramesError):
    """Two couplings expected to share a source measure do not."""


class EtaNotFrame(ProbFramesError):
    """Perturbed measure cannot be certified as a frame."""


class TooFewSamples(ProbFramesError):
    """Requested subsample is too small to span the ambient space."""


class WrongInputCount(ProbFramesError):
    """A command got more or fewer input documents than it takes."""


class BadArgument(ProbFramesError, ValueError):
    """An argument is malformed: not a finite matrix, out of range, not JSON."""


class InternalInvariantError(Exception):
    """A check the package runs on its own result failed: a bug, not bad input.

    Raised for a failed optimality certificate, a simplex that does not
    terminate, and a perturbation bound violated although its hypotheses
    hold. It derives from neither ProbFramesError nor ValueError, so the
    CLI reports it as an internal error.
    """
