"""KATO: the paper's contribution.

* :func:`neural_kernel_factory` -- the Neural Kernel of KATO's GP surrogates
  (section 3.1).
* :class:`KATGP` -- Knowledge Alignment and Transfer GP: an encoder/decoder
  wrapped around a frozen source GP, trained on target data and predicted
  through the Delta method (section 3.2, Eq. 11-12).
* :class:`SelectiveTransfer` -- the bandit weighting between KAT-GP and
  target-only proposals (section 3.4, Eq. 14).
* :class:`KATO` -- the full optimizer of Algorithm 1: a
  :class:`~repro.bo.MACE` subclass with Neural-Kernel surrogates and the
  modified constrained ensemble (section 3.3, Eq. 13), plus the KAT-GP
  refit and the selective-transfer split.
"""

from repro.core.neuk_gp import neural_kernel_factory
from repro.core.kat_gp import KATGP, SourceModel
from repro.core.selective_transfer import SelectiveTransfer
from repro.core.kato import KATO

__all__ = [
    "neural_kernel_factory",
    "KATGP",
    "SourceModel",
    "SelectiveTransfer",
    "KATO",
]
