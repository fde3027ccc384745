"""Error taxonomy shared by all modules.

Every failure the library can signal deliberately derives from
:class:`PlecticError`; the CLI maps the class name to the ``error.kind``
field of its JSON report.
"""


class PlecticError(Exception):
    """Base class for all deliberate failures."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class DivisionByZero(PlecticError):
    pass


class IrrationalValue(PlecticError):
    """An exact evaluation or root extraction left the rational field."""


class DomainViolation(PlecticError):
    """A point or exponent violates a chart's positivity constraints."""


class ChartMismatch(PlecticError):
    pass


class DegreeError(PlecticError):
    pass


class ShapeError(PlecticError):
    pass


class HomotopyPole(PlecticError):
    """The radial homotopy weight 1/(k+e) is undefined for some term."""


class SingularVolume(PlecticError):
    pass


class NotClosed(PlecticError):
    pass


class WrongType(PlecticError):
    """The form does not have the linear type the operation requires."""


class IrrationalScale(PlecticError):
    """A square root needed for an exact construction is not in the ring."""


class NotAlmostComplex(PlecticError):
    pass


class DependentFrame(PlecticError):
    pass


class NotHamiltonian(PlecticError):
    """The HDW system for the requested form is inconsistent."""


class DegenerateForm(PlecticError):
    """A solve assumed non-degeneracy and found a kernel instead."""


class JacobiViolation(PlecticError):
    pass


class HomomorphismViolation(PlecticError):
    """Declared action generators do not realize the structure constants."""


class NotSymmetryAction(PlecticError):
    pass


class NotInvariantPotential(PlecticError):
    pass


class DuplicatePoints(PlecticError):
    pass


class NonPolynomial(PlecticError):
    pass


class ParseError(PlecticError):
    pass


class SchemaError(PlecticError):
    """Invalid request payload; carries the offending JSON paths."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
