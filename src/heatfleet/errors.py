"""Exception hierarchy, one class per failure domain (CLI maps these to exit codes)."""


class HeatfleetError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HeatfleetError):
    """Invalid or unreadable run configuration."""


class SeriesError(HeatfleetError):
    """Invalid exogenous time-series input."""


class EngineError(HeatfleetError):
    """Simulation failure; Simulation.run alone prefixes the failing interval, "interval k: "."""
