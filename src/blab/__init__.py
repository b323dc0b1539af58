"""blab: a decision-boundary laboratory for small binary classifiers."""

__version__ = "0.1.0"

from .data import Dataset  # noqa: F401
from .nn import MlpNetwork, TrainConfig, TrainReport  # noqa: F401
