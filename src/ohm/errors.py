"""Exception types shared across the package, and `open_input`, which turns
an input file that cannot be opened into one of them."""


class OhmError(Exception):
    """Base class for all errors raised by this package."""


class AudioFormatError(OhmError):
    """Unsupported or malformed audio file."""


class AudioParseError(AudioFormatError):
    """Truncated or inconsistent audio container data."""


class AlignmentParseError(OhmError):
    """Malformed alignment file."""


class AlignmentValidationError(OhmError):
    """Structurally valid alignment file violating timing constraints."""


class ConfigError(OhmError):
    """Invalid configuration value or inconsistent configuration."""


class ModelFormatError(OhmError):
    """Corrupt or incompatible serialized model file."""


class ModelCompatibilityError(OhmError):
    """Model bound to a different feature configuration than requested."""


class TrainingDivergedError(OhmError):
    """Loss became non-finite during training."""

    def __init__(self, epoch, message=None):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")


class DegenerateInputError(OhmError):
    """Statistic undefined for the given input (e.g. zero variance)."""


class ManifestError(OhmError):
    """Inconsistent or incomplete manifest / ratings data."""


class EmptyInputError(OhmError):
    """Input too short or empty for the requested operation."""


def open_input(path, error, **kwargs):
    """open(path, **kwargs) for reading; a file that cannot be opened raises
    `error` naming the path."""
    try:
        return open(path, **kwargs)
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from exc
