"""Exception hierarchy.

Everything raised on bad or unsupported input derives from KMinusOneError.
InputError maps to CLI exit code 1, ExtensionUnsupported to exit code 2.
"""

from __future__ import annotations


class KMinusOneError(Exception):
    """Base class for all errors raised by this package."""


class InputError(KMinusOneError):
    """Malformed or inconsistent input (CLI exit code 1)."""


class ZeroPolynomial(InputError):
    """An operation that needs a nonzero polynomial received zero."""


class MonomialGerm(InputError):
    """The Newton polygon of a pure monomial has no compact edges."""


class NotIsolated(InputError):
    """The germ does not define an isolated singularity (not squarefree,
    constant, or not vanishing at the origin)."""


class CommonFactor(InputError):
    """Two germs that must be coprime share a nonunit factor."""


class UnknownLabel(InputError):
    """Not a valid ADE label."""


class NegativeRank(InputError):
    """A rank formula produced a negative value; the input data cannot
    come from a genuine curve."""


class NotATree(InputError):
    """The dual graph is not a connected tree of smooth rational curves."""


class InfiniteDimensionalSuspected(InputError):
    """Path enumeration hit the length bound: the algebra is likely
    infinite dimensional (non-tree input or insufficient bound)."""


class DefectExceedsL(InputError):
    """delta > L violates injectivity of Z^delta -> Z^L; inconsistent input."""


class MatrixShapeMismatch(InputError):
    """Restriction matrix shape disagrees with the singularity data."""


class MatrixNotInjective(InputError):
    """Restriction matrix does not have full column rank delta, so the
    map Z^delta -> Z^L it encodes is not injective."""


class NegativeResult(InputError):
    """Bookkeeping formula produced a negative invariant; inconsistent input."""


class OutOfRange(InputError):
    """Parameter outside the supported range."""


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
