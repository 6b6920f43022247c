"""Design-space definition and unit-cube transforms.

Transistor-sizing design variables span wildly different ranges (transistor
lengths in nanometres, capacitors in picofarads, bias currents in
microamperes), so every variable can be marked logarithmic; optimizers always
operate on the unit cube and the design space handles the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DesignSpaceError
from repro.utils.random import RandomState, as_rng
from repro.utils.validation import check_matrix


# --------------------------------------------------------------------- #
# unit-cube sampling primitives                                           #
# --------------------------------------------------------------------- #
# Shared by DesignSpace (physical design sampling) and the Monte Carlo
# mismatch samplers (standard-normal z-scores via the inverse CDF), so the
# two subsystems cannot drift apart on stratification details.

def latin_hypercube_unit(n: int, dim: int, rng: RandomState = None) -> np.ndarray:
    """Latin-hypercube points on the unit cube, ``(n, dim)``.

    Each dimension is stratified into ``n`` equal bins with one point
    uniformly placed per bin, bins visited in an independent random order.
    """
    rng = as_rng(rng)
    n = int(n)
    u = np.empty((n, int(dim)))
    for j in range(u.shape[1]):
        permutation = rng.permutation(n)
        u[:, j] = (permutation + rng.uniform(size=n)) / n
    return u


def sobol_unit(n: int, dim: int, seed: int | None = None) -> np.ndarray:
    """Scrambled Sobol points on the unit cube, ``(n, dim)``.

    A power-of-two block is generated and the first ``n`` rows returned, so
    any prefix of one seeded sequence is reproducible regardless of how the
    caller batches its draws (what the adaptive Monte Carlo loop needs).
    """
    from scipy.stats import qmc
    n = int(n)
    if n < 1:
        raise DesignSpaceError(f"n must be >= 1, got {n}")
    block = 1 << max(int(n - 1).bit_length(), 0)
    try:
        sampler = qmc.Sobol(d=int(dim), scramble=True,
                            rng=np.random.default_rng(seed))
    except TypeError:  # scipy < 1.15 spelled the rng parameter "seed"
        sampler = qmc.Sobol(d=int(dim), scramble=True,
                            seed=np.random.default_rng(seed))
    return sampler.random(block)[:n]


@dataclass(frozen=True)
class DesignVariable:
    """A single named design variable.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"L_MN1"`` or ``"C0"``).
    lower / upper:
        Physical bounds in SI units.
    log_scale:
        When True the unit-cube mapping is logarithmic, which suits
        quantities spanning orders of magnitude.
    unit:
        Free-form unit string used in reports.
    """

    name: str
    lower: float
    upper: float
    log_scale: bool = False
    unit: str = ""

    def __post_init__(self) -> None:
        if not np.isfinite(self.lower) or not np.isfinite(self.upper):
            raise DesignSpaceError(f"bounds of {self.name!r} must be finite")
        if self.upper <= self.lower:
            raise DesignSpaceError(
                f"upper bound of {self.name!r} must exceed lower bound")
        if self.log_scale and self.lower <= 0:
            raise DesignSpaceError(
                f"log-scaled variable {self.name!r} requires positive bounds")


class DesignSpace:
    """An ordered collection of :class:`DesignVariable`.

    Provides the unit-cube <-> physical transforms, uniform and Latin
    hypercube sampling and bound clipping used by every optimizer.
    """

    def __init__(self, variables: list[DesignVariable]):
        if not variables:
            raise DesignSpaceError("a design space needs at least one variable")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise DesignSpaceError(f"duplicate variable names in {names}")
        self.variables = list(variables)

    # ------------------------------------------------------------------ #
    # basic queries                                                       #
    # ------------------------------------------------------------------ #
    @property
    def dim(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> list[str]:
        return [v.name for v in self.variables]

    @property
    def bounds(self) -> np.ndarray:
        """Physical bounds as an ``(d, 2)`` array."""
        return np.array([[v.lower, v.upper] for v in self.variables], dtype=float)

    @property
    def unit_bounds(self) -> np.ndarray:
        """Unit-cube bounds ``(d, 2)`` -- what optimizers search over."""
        return np.column_stack([np.zeros(self.dim), np.ones(self.dim)])

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DesignSpace({', '.join(self.names)})"

    # ------------------------------------------------------------------ #
    # transforms                                                          #
    # ------------------------------------------------------------------ #
    def to_unit(self, x) -> np.ndarray:
        """Map physical designs ``(n, d)`` to the unit cube."""
        x = check_matrix(x, "x", n_cols=self.dim)
        out = np.empty_like(x)
        for j, variable in enumerate(self.variables):
            if variable.log_scale:
                low, high = np.log(variable.lower), np.log(variable.upper)
                out[:, j] = (np.log(np.clip(x[:, j], variable.lower, variable.upper))
                             - low) / (high - low)
            else:
                out[:, j] = (x[:, j] - variable.lower) / (variable.upper - variable.lower)
        return np.clip(out, 0.0, 1.0)

    def from_unit(self, u) -> np.ndarray:
        """Map unit-cube points ``(n, d)`` to physical designs."""
        u = check_matrix(u, "u", n_cols=self.dim)
        u = np.clip(u, 0.0, 1.0)
        out = np.empty_like(u)
        for j, variable in enumerate(self.variables):
            if variable.log_scale:
                low, high = np.log(variable.lower), np.log(variable.upper)
                out[:, j] = np.exp(low + u[:, j] * (high - low))
            else:
                out[:, j] = variable.lower + u[:, j] * (variable.upper - variable.lower)
        return out

    def clip(self, x) -> np.ndarray:
        """Clip physical designs to the bounds."""
        x = check_matrix(x, "x", n_cols=self.dim)
        bounds = self.bounds
        return np.clip(x, bounds[:, 0], bounds[:, 1])

    def as_dict(self, x) -> dict[str, float]:
        """Convert a single physical design vector to a name->value mapping."""
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.dim:
            raise DesignSpaceError(
                f"design vector has {x.shape[0]} entries, expected {self.dim}")
        return {name: float(value) for name, value in zip(self.names, x)}

    def from_dict(self, values: dict[str, float]) -> np.ndarray:
        """Convert a name->value mapping to a design vector (missing keys error)."""
        missing = [name for name in self.names if name not in values]
        if missing:
            raise DesignSpaceError(f"missing design variables: {missing}")
        return np.array([float(values[name]) for name in self.names])

    # ------------------------------------------------------------------ #
    # sampling                                                            #
    # ------------------------------------------------------------------ #
    def sample(self, n: int, rng: RandomState = None) -> np.ndarray:
        """Uniform random physical designs, ``(n, d)``."""
        rng = as_rng(rng)
        return self.from_unit(rng.uniform(size=(int(n), self.dim)))

    def sample_unit(self, n: int, rng: RandomState = None) -> np.ndarray:
        """Uniform random unit-cube points, ``(n, d)``."""
        rng = as_rng(rng)
        return rng.uniform(size=(int(n), self.dim))

    def latin_hypercube(self, n: int, rng: RandomState = None) -> np.ndarray:
        """Latin-hypercube physical designs, ``(n, d)``."""
        return self.from_unit(latin_hypercube_unit(n, self.dim, rng))

    def sobol(self, n: int, seed: int | None = None) -> np.ndarray:
        """Scrambled-Sobol physical designs, ``(n, d)``."""
        return self.from_unit(sobol_unit(n, self.dim, seed))
