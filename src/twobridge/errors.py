"""Exception types shared across the package.

``HypothesisError`` subclasses mark inputs that violate a hypothesis of
the census or certificate machinery (odd vertical twists, torus words,
non-alternating diagrams).  The CLI reports these with exit status 2;
everything else maps to exit status 1.  A message quotes at most
``_SHOWN`` characters of an input in full (``_quoted``).
"""

_SHOWN = 200


def _quoted(text: str, form=repr) -> str:
    """``form(text)``, or for a text of more than ``_SHOWN`` characters
    that of either end of it around an ellipsis, with its length."""
    if len(text) <= _SHOWN:
        return form(text)
    half = _SHOWN // 2
    return f"{form(text[:half])}...{form(text[-half:])} ({len(text)} characters)"


class TwoBridgeError(Exception):
    """Base class for all errors raised by this package."""


class ConwaySyntaxError(TwoBridgeError):
    """Input text does not match the Conway notation grammar."""


class ZeroEntryError(TwoBridgeError):
    """A Conway word contains a zero entry."""


class EvenLengthError(TwoBridgeError):
    """A Conway word has an even number of entries."""


class DegenerateFractionError(TwoBridgeError):
    """The continued fraction leaves the two-bridge range (|p| < 2)."""


class HypothesisError(TwoBridgeError):
    """A hypothesis of the construction fails for the given input."""


class EvenBRequiredError(HypothesisError):
    """Some vertical twist count b_i is odd."""


class OddTwistError(HypothesisError):
    """A vertical twist region has an odd crossing count; bigons cannot pair."""


class NotReducedAlternatingError(HypothesisError):
    """Word is not reduced alternating (entries of mixed sign or |entry| < 2)."""


class TorusCaseError(HypothesisError):
    """m = 0: a single twist region presents a torus link, no volume bound."""


class WordTooLargeError(TwoBridgeError):
    """A word has more crossings than ``conway.MAX_CROSSINGS``, where the
    output would hold one entry per crossing."""


class VariantMismatchError(TwoBridgeError):
    """Curve variant does not match the requested decomposition variant."""


class InvalidStripVariantError(TwoBridgeError):
    """Strip token is not valid for the requested map variant."""


class TraceMismatchError(TwoBridgeError):
    """Definite-fold trace disagrees with the component count of the fraction."""


class NonPositiveVolumeError(TwoBridgeError):
    """Supplied hyperbolic volume is not positive."""


class NonFiniteVolumeError(TwoBridgeError):
    """Supplied hyperbolic volume is infinite or NaN."""


class TableParseError(TwoBridgeError):
    """Malformed volume table line."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DuplicateLabelError(TwoBridgeError):
    """Volume table contains a repeated label."""


class SchemaError(TwoBridgeError):
    """Model document does not conform to the JSON schema."""


class InvariantViolationError(TwoBridgeError):
    """Model document is internally inconsistent."""
