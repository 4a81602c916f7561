"""Semantic exception hierarchy shared across the package."""

__all__ = ["FairRepairError", "DatasetError", "SpecError", "SolverError"]


class FairRepairError(Exception):
    """Base class for all errors raised by this package."""


class DatasetError(FairRepairError, ValueError):
    """Input data violates the dataset contract (domain, groups, labels)."""


class SpecError(FairRepairError, ValueError):
    """A synthetic-data joint specification is malformed."""


class SolverError(FairRepairError, RuntimeError):
    """An optimization routine cannot produce a solution."""
