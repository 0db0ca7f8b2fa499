"""Coverage-feedback stdin test input generation for C and Python targets."""

__version__ = "0.1.0"
