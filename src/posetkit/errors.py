"""Exception types shared across the package."""


class PosetKitError(Exception):
    """Base class for all errors raised by posetkit."""


class ValidationError(PosetKitError):
    """An input breaks an invariant: a duplicate id, a dangling edge endpoint, overlapping vertex
    parts, a bad field shape, or one its subclasses name (empty carrier, cycle, empty or repeating sequence)."""


class EmptyCarrier(ValidationError):
    """A poset carrier (or restriction target) was empty."""


class CycleDetected(ValidationError):
    """The closure of the input edges relates two distinct elements both ways."""


class ElementNotInCarrier(PosetKitError):
    """An element argument is not part of the poset's carrier."""


class NotASubset(PosetKitError):
    """A set argument is not contained in the carrier."""


class NotASubsetOfLeft(PosetKitError):
    """A vertex-set argument is not contained in the left part of the graph."""


class InstanceTooLarge(PosetKitError):
    """The instance exceeds the cap of an exhaustive-search operation."""


class NotASmallestCover(PosetKitError):
    """Disjointification requires a minimum-size chain cover and got a larger one."""


class WrongCardinality(PosetKitError):
    """The carrier size does not match the r*s+1 shape the operation requires."""


class EmptyInput(ValidationError):
    """A sequence constructor received no values."""


class DuplicateValue(ValidationError):
    """A sequence constructor received repeated values."""


class ParseError(PosetKitError):
    """The input is not well-formed UTF-8 JSON of the expected shape."""
