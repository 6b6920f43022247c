"""Seeded, stream-splittable mismatch samplers.

A sampler turns ``(seed, sample index)`` into a
:class:`~repro.pdk.VariationSample` -- one standard-normal z-score per
(device, parameter) -- through one of three designs:

* ``normal`` -- independent pseudo-random draws; the reference estimator.
* ``lhs`` -- Latin-hypercube stratification, reusing the same unit-cube
  machinery as :meth:`repro.bo.DesignSpace.latin_hypercube`.
* ``sobol`` -- a scrambled Sobol sequence (variance reduction for smooth
  yield surfaces), via :func:`repro.bo.design_space.sobol_unit`.

Determinism is the load-bearing property: the whole ``(n_max, dim)`` z-score
block is a pure function of the seed, materialised lazily *once* in the
coordinating process and only ever sliced by index.  However the adaptive
loop batches its draws, whichever serial/batched/process backend executes
them, and wherever a checkpointed study resumes, sample ``i`` is always the
same silicon -- which is what makes yield estimates bit-identical across all
of those axes (and lets per-sample cache tokens mean anything at all).

Samplers are *stream-splittable*: :meth:`MismatchSampler.split` derives
independent child streams (one per repetition, shard or worker island) from
the parent seed via ``numpy.random.SeedSequence`` spawning, so concurrent
studies never share or overlap draws.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from repro.bo.design_space import latin_hypercube_unit, sobol_unit
from repro.pdk import VariationSample
from repro.utils.random import spawn_seed_ints
from repro.utils.validation import suggestion_hint

#: Uniform draws are clipped inside the open interval before the inverse
#: normal CDF, so a scrambled point landing exactly on a cell edge cannot
#: produce an infinite z-score.
_UNIT_EPS = 1e-12


class MismatchSampler:
    """Base class: deterministic per-device z-score streams.

    Parameters
    ----------
    device_names:
        The matched devices; two mismatch parameters (vth, beta) are drawn
        per device.  Stored sorted so the column layout is stable whatever
        order the caller enumerated the netlist in.
    seed:
        Stream seed.  Equal seeds (and equal device sets) give bit-identical
        streams; :meth:`split` derives non-overlapping child seeds.
    n_max:
        Stream length: the largest sample index that may be requested.
        Fixed up front because stratified designs (LHS) depend on the total
        count -- growing a stream would silently change *every* draw.
    """

    name = "base"

    def __init__(self, device_names, seed: int = 0, n_max: int = 2048):
        self.device_names = tuple(sorted(device_names))
        if not self.device_names:
            raise ValueError("sampler needs at least one device name")
        self.seed = int(seed)
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self.n_max = int(n_max)
        self._zscores: np.ndarray | None = None

    @property
    def dim(self) -> int:
        """Mismatch dimensions: vth and beta per device."""
        return 2 * len(self.device_names)

    def _generate(self) -> np.ndarray:
        """The full ``(n_max, dim)`` z-score block (pure function of seed)."""
        raise NotImplementedError

    @property
    def zscores(self) -> np.ndarray:
        if self._zscores is None:
            z = np.asarray(self._generate(), dtype=float)
            if z.shape != (self.n_max, self.dim):
                raise ValueError(f"sampler produced shape {z.shape}, "
                                 f"expected {(self.n_max, self.dim)}")
            z.setflags(write=False)
            self._zscores = z
        return self._zscores

    def take(self, start: int, count: int) -> list[VariationSample]:
        """Samples ``start .. start+count-1`` of this stream, by index."""
        if start < 0 or count < 0 or start + count > self.n_max:
            raise ValueError(
                f"requested samples [{start}, {start + count}) outside the "
                f"stream length {self.n_max}")
        d = len(self.device_names)
        block = self.zscores[start:start + count]
        return [VariationSample.from_zscores(start + i, self.device_names,
                                             row[:d], row[d:])
                for i, row in enumerate(block)]

    def split(self, count: int) -> list["MismatchSampler"]:
        """``count`` independent same-design child streams."""
        return [type(self)(self.device_names, seed=child, n_max=self.n_max)
                for child in spawn_seed_ints(self.seed, count)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(devices={len(self.device_names)}, "
                f"seed={self.seed}, n_max={self.n_max})")


class NormalSampler(MismatchSampler):
    """Independent standard-normal draws (plain Monte Carlo)."""

    name = "normal"

    def _generate(self) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        return rng.standard_normal((self.n_max, self.dim))


class LatinHypercubeSampler(MismatchSampler):
    """Latin-hypercube stratified normals.

    Stratification is over the whole ``n_max`` stream; an adaptively stopped
    prefix keeps the determinism guarantee but only approximates the
    stratified variance reduction.
    """

    name = "lhs"

    def _generate(self) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        u = latin_hypercube_unit(self.n_max, self.dim, rng)
        return ndtri(np.clip(u, _UNIT_EPS, 1.0 - _UNIT_EPS))


class SobolSampler(MismatchSampler):
    """Scrambled-Sobol quasi-random normals."""

    name = "sobol"

    def _generate(self) -> np.ndarray:
        u = sobol_unit(self.n_max, self.dim, seed=self.seed)
        return ndtri(np.clip(u, _UNIT_EPS, 1.0 - _UNIT_EPS))


_SAMPLERS: dict[str, type[MismatchSampler]] = {
    NormalSampler.name: NormalSampler,
    LatinHypercubeSampler.name: LatinHypercubeSampler,
    "latin_hypercube": LatinHypercubeSampler,
    SobolSampler.name: SobolSampler,
}


def available_samplers() -> list[str]:
    """Names accepted by :func:`make_sampler`."""
    return sorted(_SAMPLERS)


def make_sampler(name: str, device_names, seed: int = 0,
                 n_max: int = 2048) -> MismatchSampler:
    """Instantiate a sampler by registry name."""
    key = str(name).lower()
    if key not in _SAMPLERS:
        raise ValueError(f"unknown sampler {name!r}"
                         f"{suggestion_hint(key, _SAMPLERS)}; "
                         f"available: {available_samplers()}")
    return _SAMPLERS[key](device_names, seed=seed, n_max=n_max)
