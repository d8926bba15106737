"""Exception types shared across the package."""

import contextlib


class PeskinError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PeskinError):
    """Malformed or inconsistent run configuration."""


@contextlib.contextmanager
def config_values():
    """Turn a missing key or a malformed value read from a config into a ConfigError."""
    try:
        yield
    except KeyError as e:
        raise ConfigError(f"missing config key: {e}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid config value: {e}") from e


class GeometryError(PeskinError):
    """Curve violated the chord-arc condition (near self-intersection)."""


class TensionDomainError(PeskinError):
    """Stretch left the validity interval of the tension law."""


class StepRejected(PeskinError):
    """A time step amplified some mode beyond the blow-up guard."""


class InsufficientDecay(PeskinError):
    """Trajectory too short to fit a decay rate (norm drop below e^2)."""


class IllConditioned(PeskinError):
    """Eigenvector matrix too ill-conditioned to build a propagator."""
