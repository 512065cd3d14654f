"""Exception types shared across the package."""


class AlcoveHeckeError(Exception):
    """Base class for all package errors."""


class MalformedInput(AlcoveHeckeError):
    """A descriptor, literal, or file could not be parsed or validated."""


class UnknownPreset(MalformedInput):
    """Requested root-datum preset does not exist."""


class CartanNotFiniteType(AlcoveHeckeError):
    """The Cartan matrix of the input data is not of finite type."""


class TorsionQuotient(AlcoveHeckeError):
    """The quotient of the character lattice by the root lattice has torsion."""


class DimensionMismatch(AlcoveHeckeError):
    """A vector has the wrong number of coordinates."""


class NotFinitary(AlcoveHeckeError):
    """A set to enumerate is infinite: the parabolic subgroup of a generator
    subset, or the restricted elements of a datum that is not semisimple."""


class Unrepresentable(AlcoveHeckeError):
    """A coset unexpectedly has no canonical representative."""


class NotSpherical(AlcoveHeckeError):
    """An element is not a minimal coset representative where one is required."""


class NotRestricted(AlcoveHeckeError):
    """An element is not restricted where a restricted one is required."""


class NotDominant(AlcoveHeckeError):
    """A coweight is not dominant where a dominant one is required."""


class FlavorMismatch(AlcoveHeckeError):
    """Filtration flavors do not match the operation's contract."""


class BoundsTooLarge(AlcoveHeckeError):
    """A request exceeds a stated bound: the suite's sweep bounds, the
    element length the canonical-basis recursions accept, the number of
    candidate weights a character computation enumerates, or the order of a
    Weyl group the loader tabulates (`root_datum.MAX_WEYL_ORDER`, 1152)."""


class InvariantViolation(AlcoveHeckeError):
    """A computed result fails an invariant the library checks on itself."""
