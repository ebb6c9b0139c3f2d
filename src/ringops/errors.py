"""Exception hierarchy shared by all ringops modules."""


class RingopsError(Exception):
    """Base class for all library errors."""


class NotInR(RingopsError):
    """An integer polynomial is not a sum of distinct square-free monic monomials."""


class ArityMismatch(RingopsError):
    """Argument count or variable count does not match the declared arity."""


class NotAMorphism(RingopsError):
    """The substituted source polynomial differs from the declared target."""


class InvalidSignature(RingopsError):
    """A type signature is not a sorted sequence of positive sizes."""


class ArityCapExceeded(RingopsError):
    """An enumeration was requested beyond the supported arity cap."""


class SearchBudgetExceeded(RingopsError):
    """An exhaustive search would exceed its instance budget."""


class PreconditionViolation(RingopsError):
    """An operation was called outside its stated domain."""


class NotSpecial(PreconditionViolation):
    """The polynomial is not a special (consecutive-block) representative."""


class NotReduced(PreconditionViolation):
    """The term is not in bipermutative normal form."""


class FiberNotStable(RingopsError):
    """A term fiber is not complete at the leaf bound: it has terms with more leaves."""


class FixtureError(RingopsError):
    """A fixture file row is malformed or inconsistent."""


class ParseFailure(RingopsError):
    """Text input does not match the grammar; carries the failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
