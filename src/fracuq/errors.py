"""Exception types shared across the package.

Each error carries a short machine-readable code used by the CLI to format
``error[CODE]: message`` lines and pick exit statuses.
"""


class FracUQError(Exception):
    """Base class for all package errors."""

    code = "E_INTERNAL"


class ConfigurationError(FracUQError):
    """Inconsistent or out-of-range configuration values."""

    code = "E_CONFIG"


class DomainError(FracUQError):
    """An input lies outside its admissible set: a mesh vertex outside the
    unit square, or a field whose declared lower bound is not positive."""

    code = "E_DOMAIN"


class ValidationError(FracUQError):
    """A file or object failed structural validation (e.g. reducible modulus)."""

    code = "E_VALIDATE"


class SolverError(FracUQError):
    """A sample without finite values: its element-averaged diffusivity is not
    positive and finite, so it was never stepped, or a level solve failed."""

    code = "E_SOLVER"


class ToleranceError(FracUQError):
    """A requested accuracy could not be achieved within hard caps."""

    code = "E_TOL"


class UsageError(FracUQError):
    """Bad command line or missing input file."""

    code = "E_USAGE"
