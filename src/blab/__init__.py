"""blab: a decision-boundary laboratory for small binary classifiers."""

__version__ = "0.1.0"
