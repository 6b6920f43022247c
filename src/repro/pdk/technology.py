"""Technology card: everything a testbench needs to know about a node."""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass, replace
from functools import cached_property

from repro.pdk.variation import MismatchCard, VariationSample
from repro.spice.devices.mosfet import MosfetModel

#: Conservative generic Pelgrom coefficients used when a card does not set
#: its own (roughly mature-node textbook numbers: 4 mV*um and 1.5 %*um).
DEFAULT_MISMATCH = MismatchCard(avt=4.0e-9, abeta=1.5e-8)


@dataclass(frozen=True)
class Technology:
    """A synthetic process node description.

    Attributes
    ----------
    name:
        Node identifier, e.g. ``"180nm"``.
    vdd:
        Nominal supply voltage (V).
    nmos / pmos:
        Level-1 device models.
    min_length / max_length:
        Allowed transistor channel lengths (m).
    min_width / max_width:
        Allowed transistor widths (m).
    corner:
        Process-corner label (``"tt"`` for the nominal card).  Derived corner
        cards (see :meth:`with_corner`) keep ``name`` unchanged -- design
        spaces and gain targets are keyed on the node name -- and record the
        corner here, so :attr:`fingerprint` still tells the cards apart.
    nmos_mismatch / pmos_mismatch:
        Pelgrom local-mismatch coefficients per polarity (see
        :mod:`repro.pdk.variation`).
    variation:
        The local-mismatch sample applied to this card, or ``None`` for the
        statistically nominal card.  Like ``corner``, a set sample keeps
        ``name`` unchanged and only distinguishes the card through
        :attr:`fingerprint`.
    """

    name: str
    vdd: float
    nmos: MosfetModel
    pmos: MosfetModel
    min_length: float
    max_length: float
    min_width: float
    max_width: float
    corner: str = "tt"
    nmos_mismatch: MismatchCard = DEFAULT_MISMATCH
    pmos_mismatch: MismatchCard = DEFAULT_MISMATCH
    variation: VariationSample | None = None

    @property
    def common_mode(self) -> float:
        """Default input common-mode voltage used by the op-amp testbenches."""
        return 0.5 * self.vdd

    def clamp_length(self, length: float) -> float:
        return min(max(length, self.min_length), self.max_length)

    def clamp_width(self, width: float) -> float:
        return min(max(width, self.min_width), self.max_width)

    # ------------------------------------------------------------------ #
    # process corners                                                      #
    # ------------------------------------------------------------------ #
    def with_corner(self, *, nmos_kp_scale: float = 1.0,
                    nmos_vth_shift: float = 0.0,
                    pmos_kp_scale: float = 1.0,
                    pmos_vth_shift: float = 0.0,
                    vdd_scale: float = 1.0,
                    corner: str = "tt") -> "Technology":
        """A derived card with scaled device models and supply.

        ``kp`` scales multiplicatively (slow silicon has lower mobility) and
        ``vth0`` shifts additively in its magnitude convention (slow silicon
        has a higher threshold for both polarities).  Geometry limits -- and
        therefore the design space -- are unchanged, so nominal and corner
        cards size the same variables.
        """
        nmos = replace(self.nmos, kp=self.nmos.kp * nmos_kp_scale,
                       vth0=self.nmos.vth0 + nmos_vth_shift)
        pmos = replace(self.pmos, kp=self.pmos.kp * pmos_kp_scale,
                       vth0=self.pmos.vth0 + pmos_vth_shift)
        return replace(self, vdd=self.vdd * vdd_scale, nmos=nmos, pmos=pmos,
                       corner=corner)

    # ------------------------------------------------------------------ #
    # local mismatch                                                       #
    # ------------------------------------------------------------------ #
    def with_variation(self, sample: VariationSample | None) -> "Technology":
        """A derived card carrying one local-mismatch sample.

        The statistical counterpart of :meth:`with_corner`: device models and
        geometry limits stay nominal (the per-device shifts depend on each
        transistor's sized geometry, so they are applied at netlist-build
        time by :func:`repro.pdk.variation.apply_variation`), while the
        sample's z-scores enter :attr:`fingerprint` so no two samples -- and
        no sample and the nominal card -- ever share design-cache entries.
        """
        derived = replace(self, variation=sample)
        # Every sample of this card shares its nominal fingerprint text.
        derived.__dict__["_nominal_repr"] = self._nominal_repr
        return derived

    def mismatch_card(self, polarity: str) -> MismatchCard:
        """The Pelgrom coefficients of one polarity (``"nmos"``/``"pmos"``)."""
        if polarity == "nmos":
            return self.nmos_mismatch
        if polarity == "pmos":
            return self.pmos_mismatch
        raise ValueError(f"polarity must be 'nmos' or 'pmos', got {polarity!r}")

    @property
    def fingerprint(self) -> str:
        """Digest of every card parameter (device models included).

        Two cards with the same ``name`` but different silicon -- e.g. the
        nominal node and an ``ss`` corner derived from it -- must never share
        design-cache entries; the circuit problems fold this digest into
        their cache tokens.

        The digest is of ``repr(astuple(self))``.  ``variation`` is the last
        field, so that text is the nominal part's (cached, and shared by
        every :meth:`with_variation` sample) followed by the sample's.  A
        :class:`VariationSample` holds only an int and flat
        ``(str, float, float)`` rows, so its ``astuple`` text is spelled out
        directly instead of through the recursive ``astuple`` walk.
        """
        sample = self.variation
        variation = None if sample is None else (
            sample.index,
            tuple((d.device, d.vth_z, d.beta_z) for d in sample.devices))
        text = f"{self._nominal_repr}{variation!r})"
        return hashlib.sha1(text.encode()).hexdigest()[:16]

    @cached_property
    def _nominal_repr(self) -> str:
        """``repr(astuple(self))`` up to the ``variation`` field's text."""
        return repr(astuple(replace(self, variation=None)))[:-len("None)")]

    def describe(self) -> dict[str, float | str]:
        return {
            "name": self.name,
            "vdd": self.vdd,
            "nmos_vth": self.nmos.vth0,
            "pmos_vth": self.pmos.vth0,
            "nmos_kp": self.nmos.kp,
            "pmos_kp": self.pmos.kp,
            "min_length_nm": self.min_length * 1e9,
        }
