"""The package version: read by setuptools and stamped on every certificate."""

__version__ = "0.1.0"
