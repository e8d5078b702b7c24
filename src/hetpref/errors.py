"""Exception types shared across the package."""


class HetprefError(Exception):
    """Base class for package-specific failures."""


class CatalogKeyError(HetprefError, KeyError):
    """Unknown prompt or response id."""


class DegeneratePopulationError(HetprefError, ValueError):
    """A population construction would produce indistinguishable types."""


class ConfigError(HetprefError, ValueError):
    """Bad configuration value; message names the offending field."""


class InputError(HetprefError, ValueError):
    """A malformed input file; message names the file, the line and the cause."""


class HashMismatchError(HetprefError):
    """An input file does not match the hash recorded in a manifest."""


class ConvergenceError(HetprefError):
    """A fit has no finite maximizer, or its solver hit the iteration cap."""


class RankError(HetprefError, ValueError):
    """A comparison design matrix is rank deficient."""


class StepSizeError(HetprefError):
    """An optimizer diverged; the step size is too large."""
