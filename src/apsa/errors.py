"""Exception types shared across the package."""


class NotCoprimeError(ValueError):
    """A ratio/modulus pair that must be coprime is not."""


class UnsupportedCaseError(ValueError):
    """The requested construction does not apply to this permutation."""


class WrongCaseError(ValueError):
    """The permutation belongs to a different construction case."""


class AlphabetTooSmallError(ValueError):
    """The requested alphabet cannot accommodate the required splits."""


class InvalidSplitError(ValueError):
    """A splitting position is missing, duplicated, or out of range."""


class DegenerateSlopeError(ValueError):
    """A Christoffel operation needs both step counts to be positive."""


class WrongParityError(ValueError):
    """An index with the wrong parity was passed to a parity-specific formula."""


class SearchSpaceTooLargeError(ValueError):
    """A brute-force search was refused because the space is too big."""


class CorpusFormatError(ValueError):
    """A corpus file or manifest is malformed."""
