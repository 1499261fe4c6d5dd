"""The two exception classes, one per exit code, and the reader of
every input file, whose decode errors name their line."""


class CuspedZetaError(Exception):
    """A computation failed (exit 70): the base class of every error
    raised by this package."""


class InputError(CuspedZetaError):
    """The input data is invalid (exit 65).  The message ends with the
    line, and the column when known, that it names."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message += f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message)
        self.line = line
        self.column = column


def read_utf8(path) -> str:
    """The text of the file at `path`; bytes that are not UTF-8 raise an
    InputError naming the first bad byte and its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the bad byte, with a stand-in for the byte,
        # ends on the line of the byte
        before = data[:exc.start].decode("utf-8") + "x"
        raise InputError(f"not UTF-8: byte 0x{data[exc.start]:02x}, "
                         f"{exc.reason}", line=len(before.splitlines()))
