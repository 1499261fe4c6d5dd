"""Exception hierarchy shared by all modules."""


class CuspedZetaError(Exception):
    """Base class for every error raised by this package."""


class PresentationSyntaxError(CuspedZetaError):
    """Presentation file violates the line grammar."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class ValidationError(CuspedZetaError):
    """Structurally well-formed input fails a semantic invariant."""


class MissingPeripheralData(ValidationError):
    pass


class ZeroPolynomial(CuspedZetaError):
    pass


class NotTorsion(CuspedZetaError):
    """A twisted homology module has a free part; the finiteness
    assumption behind the Alexander invariant fails."""

    def __init__(self, which):
        super().__init__(f"module {which} is not torsion")
        self.which = which


class ComplexConditionViolation(CuspedZetaError):
    pass


class FormatError(CuspedZetaError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class ConvergenceRegionError(CuspedZetaError):
    pass


class DiscretenessSuspect(Warning):
    """Two enumerated words have nearly equal traces but incompatible
    class data; reported, never fatal."""


class QuadratureFailure(CuspedZetaError):
    pass


class PoleEvaluation(CuspedZetaError):
    pass


class PoleOnAxis(CuspedZetaError):
    pass


class InconsistentInput(CuspedZetaError):
    pass
