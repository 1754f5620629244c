"""Domain exceptions. Each carries a stable machine-readable code used by the CLI."""


class SpinductError(Exception):
    """Base class for all domain errors."""

    code = "error"


# --- root data ---------------------------------------------------------


class UnknownSeries(SpinductError):
    code = "unknown-series"


class LatticeNotIntermediate(SpinductError):
    code = "lattice-not-intermediate"


class RankCapExceeded(SpinductError):
    code = "rank-cap-exceeded"


class NotASubsetOfRoots(SpinductError):
    code = "not-a-subset-of-roots"


class NotARoot(SpinductError):
    code = "not-a-root"


class DimensionMismatch(SpinductError):
    code = "dimension-mismatch"


# --- weyl ---------------------------------------------------------------


class OrderCapExceeded(SpinductError):
    code = "order-cap-exceeded"


class ShiftNotStable(SpinductError):
    code = "shift-not-stable"


# --- character rings ----------------------------------------------------


class DatumMismatch(SpinductError):
    code = "datum-mismatch"


class NotDominant(SpinductError):
    code = "not-dominant"


class NotAntiInvariant(SpinductError):
    code = "not-anti-invariant"


# --- induction ----------------------------------------------------------


class BadTwist(SpinductError):
    code = "bad-twist"


class NotWHInvariant(SpinductError):
    code = "not-wh-invariant"


class InexactDivision(SpinductError):
    code = "inexact-division"


class NotSpin(SpinductError):
    code = "not-spin"


class NotCSpinorial(SpinductError):
    code = "not-c-spinorial"


class NotLevi(SpinductError):
    code = "not-levi"


class NotHDominant(SpinductError):
    code = "not-h-dominant"


class InternalInconsistency(SpinductError):
    code = "internal-inconsistency"


class WrongBasisSize(SpinductError):
    code = "wrong-basis-size"


class BadTwistPairing(SpinductError):
    code = "bad-twist-pairing"


class DegenerateSample(SpinductError):
    code = "degenerate-sample"


# --- spin^c -------------------------------------------------------------


class NotInXH(SpinductError):
    code = "not-in-xh"


class LengthMismatch(SpinductError):
    code = "length-mismatch"


# --- cli ----------------------------------------------------------------


class SchemaViolation(SpinductError):
    code = "schema-violation"

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer
