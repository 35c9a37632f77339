"""Exception types shared across the pipeline stages."""

from __future__ import annotations


class TTPMinerError(Exception):
    """Base class for all errors raised by this package."""


class BundleParseError(TTPMinerError):
    """STIX bundle bytes are not valid JSON; carries the failing byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class BundleSchemaError(TTPMinerError):
    """Parsed JSON is not a usable STIX bundle (e.g. no ``objects`` array)."""


class ManifestError(TTPMinerError):
    """A report or unseen-report manifest violates its schema or invariants."""


class AnnotationError(TTPMinerError):
    """A relation-annotation row is malformed or references an unknown pair."""


class ArtifactError(TTPMinerError):
    """An upstream artifact read back from the output directory is corrupt or stale."""


class ConfigError(TTPMinerError):
    """Pipeline configuration (a config file, a flag or the command) is malformed or out of range."""
