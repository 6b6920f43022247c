"""Gradient-based optimizers for GP hyper-parameters and network weights."""

from repro.optim.adam import Adam
from repro.optim.lbfgs import minimize_lbfgs
from repro.optim.trainer import train_module

__all__ = ["Adam", "minimize_lbfgs", "train_module"]
