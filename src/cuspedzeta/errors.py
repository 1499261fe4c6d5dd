"""Exception hierarchy shared by all modules, and the reader of every
input file, whose decode errors name their line."""


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


def read_utf8(path) -> str:
    """The text of the file at `path`; bytes that are not UTF-8 raise a
    FormatError naming the first bad byte and its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the bad byte, with a stand-in for the byte,
        # ends on the line of the byte
        before = data[:exc.start].decode("utf-8") + "x"
        raise FormatError(f"not UTF-8: byte 0x{data[exc.start]:02x}, "
                          f"{exc.reason}", line=len(before.splitlines()))
