"""Shared test utilities."""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np

from blab.nn import init_network

ROOT = Path(__file__).resolve().parent.parent


def linear_net(w, b):
    """[2, 2] network whose margin is exactly w.x + b."""
    net = init_network([2, 2], seed=0)
    net.weights[0][0] = np.zeros(2)
    net.weights[0][1] = np.asarray(w, dtype=float)
    net.biases[0][:] = (0.0, float(b))
    return net


@functools.cache
def load_bench():
    """perfbench/run.py, the benchmark's runner, as one module for every test that reads it."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module
