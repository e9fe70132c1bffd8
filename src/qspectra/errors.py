"""Exception hierarchy shared across the package."""


class QSpectraError(Exception):
    """Base class for all package errors."""


class PreconditionError(QSpectraError):
    """An operation was called on data violating its stated precondition."""


class FrameError(PreconditionError):
    """Quaternion is not a unit imaginary, or a frame is inconsistent."""


class ShapeError(PreconditionError):
    """Dimension, length or measure-space mismatch."""


class RankDeficiencyError(PreconditionError):
    """Gram-Schmidt hit a (numerically) dependent vector."""

    def __init__(self, index, residual):
        super().__init__(f"rank deficiency at index {index} (residual {residual:.3e})")
        self.index = index
        self.residual = residual


class IncompleteBasisError(PreconditionError):
    """Expansion coefficients do not reconstruct the input vector."""


class NotNormalError(PreconditionError):
    """Operator is not normal within tolerance."""


class SliceCommutationError(PreconditionError):
    """Operator does not commute with the slice structure's J."""


class SliceMembershipError(PreconditionError):
    """Value lies off the slice C_m beyond the membership tolerance."""


class TransformDomainError(PreconditionError):
    """Contraction norm too close to 1 for a stable inverse transform."""


class SymbolZeroError(PreconditionError):
    """Symbol vanishes on a positive-weight atom where it must not."""


class DuplicateSymbolError(PreconditionError):
    """Symbol values collide on positive-weight atoms, collapsing the pushforward."""


class ComputationError(QSpectraError):
    """A numerical contract failed mid-computation."""


class EigenResidualError(ComputationError):
    """Eigendecomposition failed its residual contract."""


class CrossCheckError(ComputationError):
    """Two independent routes to the same answer disagree."""


class InputFormatError(QSpectraError):
    """A file or payload does not match the documented schema."""


class ReportSchemaError(QSpectraError):
    """A report payload does not match the report schema; a program fault."""
