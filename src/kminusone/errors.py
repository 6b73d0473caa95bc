"""Exception hierarchy: the six classes the program tells apart.

- KMinusOneError: the base class; alone, a stated resource limit (exit code 1).
- InputError: malformed, inconsistent or out-of-range input (exit code 1).
- PolySyntaxError: an InputError at a line and column of a polynomial.
- SpecValidationError: an InputError at a field path of a spec document.
- NotIsolated: an InputError for a germ not isolated at the origin.
- ExtensionUnsupported: a field extension that cannot be certified (exit 2).

Record constructors such as DualGraph and VarietySpec raise ValueError
when the library API is misused.
"""

from __future__ import annotations


class KMinusOneError(Exception):
    """Base class of the errors this package raises (CLI exit code 1)."""


class InputError(KMinusOneError):
    """Malformed, inconsistent or out-of-range input (CLI exit code 1)."""


class NotIsolated(InputError):
    """The germ does not vanish at the origin, or has a repeated factor
    through the origin."""


class PolySyntaxError(InputError):
    """Syntax error in a polynomial expression, with position info."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SpecValidationError(InputError):
    """A specification document failed schema validation."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
        self.message = message


class ExtensionUnsupported(KMinusOneError):
    """Branch counting would need a field extension the implementation
    cannot certify (CLI exit code 2).  Re-run with --factors, supplying
    the irreducible factors of the germ."""


def at_field(path: str, f, *args):
    """f(*args), with an InputError it raises reported as a
    SpecValidationError at the field path of a spec document, and
    ExtensionUnsupported, which keeps exit code 2, with the path in front."""
    try:
        return f(*args)
    except InputError as exc:
        raise SpecValidationError(path, str(exc)) from exc
    except ExtensionUnsupported as exc:
        raise ExtensionUnsupported(f"{path}: {exc}") from exc
