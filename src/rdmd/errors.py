"""Exception taxonomy. All library errors derive from RdmdError so callers
can catch one base class; the CLI maps any RdmdError to exit code 1."""


class RdmdError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(RdmdError):
    pass


class RankOutOfRange(RdmdError):
    pass


class ConvergenceFailure(RdmdError):
    pass


class NegativeLambda(RdmdError):
    pass


class InvalidOversampling(RdmdError):
    pass


class InvalidDistribution(RdmdError):
    pass


class InvalidBlockCount(RdmdError):
    pass


class TooFewSnapshots(RdmdError):
    pass


class TooManyModes(RdmdError):
    pass


class DegenerateData(RdmdError):
    pass


class MissingAmplitudes(RdmdError):
    pass


class EmptyInput(RdmdError):
    pass


class NonFiniteInput(RdmdError):
    """NaN or Inf in the data. `row` is the first input row holding one, or
    None when the data is finite and a product of it overflowed."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class MemoryCapExceeded(RdmdError):
    pass


class IoFailure(RdmdError):
    pass


class BadMagic(IoFailure):
    pass


class UnsupportedVersion(IoFailure):
    pass


class TruncatedPayload(IoFailure):
    pass
