"""Synthetic process design kits (PDKs).

The paper sizes circuits in proprietary 180 nm and 40 nm PDKs.  Offline, this
package provides open, synthetic-but-physically-sensible technology cards
with the qualitative differences that matter for transfer learning: the 40 nm
node has a lower supply, lower threshold, higher transconductance per area,
much stronger channel-length modulation (lower intrinsic gain) and smaller
allowed geometries.
"""

from repro.pdk.technology import Technology
from repro.pdk.nodes import TECHNOLOGIES, get_technology, make_180nm, make_40nm
from repro.spice.devices.mosfet import NoiseCard
from repro.pdk.variation import (
    DeviceVariation,
    MismatchCard,
    VariationSample,
    apply_variation,
)

__all__ = [
    "Technology",
    "make_180nm",
    "make_40nm",
    "get_technology",
    "TECHNOLOGIES",
    "MismatchCard",
    "NoiseCard",
    "DeviceVariation",
    "VariationSample",
    "apply_variation",
]
