"""Exception hierarchy shared across the package.

User-facing errors (bad input, refused reduction level) are distinguished
from internal-consistency errors, which always indicate a bug: the exact
algorithms must never hit a non-exact division or a non-polynomial
localization sum on valid data.
"""

from __future__ import annotations


class WeightvarError(Exception):
    """Base class for all package errors."""


class ConfigError(WeightvarError):
    """Invalid or non-exact user configuration."""


class InvalidRank(ConfigError):
    """(type, rank) is not a valid finite root-system type."""


class RankLimitExceeded(ConfigError):
    """rank exceeds the configured enumeration guard."""


class DimensionMismatch(WeightvarError):
    """Vector or matrix dimensions disagree with the ambient rank."""


class DegreeOverflow(ConfigError):
    """Requested grading degree is negative or exceeds the top degree of
    the flag variety."""


class MuNotRegularValue(WeightvarError):
    """The reduction level is not a regular value of the moment map.

    `diagnostic` names the violated facet, the critical segment hit, or a
    wall coincidence (an exact tie in a theorem inequality).
    """

    def __init__(self, diagnostic: str):
        super().__init__(diagnostic)
        self.diagnostic = diagnostic


class InternalConsistencyError(WeightvarError):
    """An invariant the algorithms guarantee was violated; always a bug."""


class NonExactDivision(InternalConsistencyError):
    """Polynomial division had a remainder where exactness is guaranteed."""


class InhomogeneousInput(WeightvarError):
    """An operation requiring a homogeneous class received a mixed one."""


class LocalizationNotPolynomial(InternalConsistencyError):
    """Localization sum failed to clear its denominator; always a bug."""


class CacheCorrupt(WeightvarError):
    """A cache file failed validation: its header, checksum, element order
    or body is unusable."""
