"""Exception hierarchy shared by all webfol modules.

Two families matter to callers: ``InputError`` (malformed or out-of-domain
input, CLI exit code 2) and ``ComputationError`` (a computation refused to
complete on otherwise well-formed input, CLI exit code 3).  Each class
carries the stable ``code`` of its CLI error document and its
``exit_code``; this is the one table the CLI reads.
"""


class WebfolError(Exception):
    """Base class for every error raised by this package."""


class InputError(WebfolError):
    """Malformed input, schema violation, or parameter outside its domain."""

    code = "input_error"
    exit_code = 2


class ValidationError(InputError):
    """A domain-object invariant failed; carries a stable reason code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class GeneratorError(InputError):
    """A group generator does not preserve the form it was supplied for."""


class ComputationError(WebfolError):
    """The computation could not proceed (see concrete subclasses)."""

    code = "computation_error"
    exit_code = 3


class NonGenericLineError(ComputationError):
    """The chosen line is degenerate for the form being restricted."""

    code = "non_generic_line"


class SingularPointError(ComputationError):
    """The chosen sample point lies in the singular set of the form."""

    code = "singular_point"


class CapExceededError(ComputationError):
    """Group closure grew past the configured element cap."""

    code = "cap_exceeded"
