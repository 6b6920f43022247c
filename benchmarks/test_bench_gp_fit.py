"""GP marginal-likelihood fits: closed-form vs tape gradients (BENCH_GP_FIT).

``GPRegression`` differentiates the negative log marginal likelihood of a
stationary ARD kernel (RBF, Matern, RQ) in closed form and seeds an autodiff
graph for every other kernel.  This benchmark runs both routes on the same
RBF problems -- n in {12, 40, 80, 116} training points in d = 10, the sizes
a MACE study refits at -- and reports per size:

* the time of one gradient step on each route (best of interleaved repeats);
* the time of a whole 30-step fit on each route;
* ``abs_dnlml``: |NLML of the closed-form fit - NLML of the tape fit|.

The routes must reach the same optimum (relative |dNLML| <= 1e-8), and the
closed-form step must not be slower than the tape step.

Emits one BENCH_GP_FIT record::

    BENCH_GP_FIT {"d": 10, "n_iters": 30, "repeats": ..., "sizes": {"12":
                  {"step_closed_us": ..., "step_tape_us": ..., "step_speedup": ...,
                   "fit_closed_ms": ..., "fit_tape_ms": ..., "fit_speedup": ...,
                   "nlml": ..., "abs_dnlml": ...}, ...}}
"""

import contextlib
import time

import numpy as np

from conftest import budget, record_bench

from repro.gp import GPRegression
from repro.kernels import RBFKernel

SIZES = (12, 40, 80, 116)
DIM = 10
N_ITERS = 30
REPEATS = budget(quick=5, paper=15)
STEPS_PER_REPEAT = 20


@contextlib.contextmanager
def _tape_route():
    """Send stationary kernels through the autodiff graph instead."""
    closed_form = GPRegression._stationary_nlml
    GPRegression._stationary_nlml = GPRegression._tape_nlml
    try:
        yield
    finally:
        GPRegression._stationary_nlml = closed_form


def _data(n: int):
    rng = np.random.default_rng(n)
    x = rng.uniform(size=(n, DIM))
    y = np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2 + 0.05 * rng.normal(size=n)
    return x, y


def _step_seconds(gp: GPRegression, objective) -> float:
    start = time.perf_counter()
    for _ in range(STEPS_PER_REPEAT):
        gp.zero_grad()
        objective(with_grad=True)
    return (time.perf_counter() - start) / STEPS_PER_REPEAT


def _fit(x, y) -> tuple[GPRegression, float]:
    start = time.perf_counter()
    gp = GPRegression(kernel=RBFKernel(DIM)).fit(x, y, n_iters=N_ITERS)
    return gp, time.perf_counter() - start


def _measure(n: int) -> dict:
    x, y = _data(n)
    gp = GPRegression(kernel=RBFKernel(DIM)).fit(x, y, optimize=False)
    step_closed, step_tape, fit_closed, fit_tape = [], [], [], []
    for _ in range(REPEATS):
        step_closed.append(_step_seconds(gp, gp._stationary_nlml))
        step_tape.append(_step_seconds(gp, gp._tape_nlml))
        closed, seconds = _fit(x, y)
        fit_closed.append(seconds)
        with _tape_route():
            tape, seconds = _fit(x, y)
        fit_tape.append(seconds)
    nlml = -closed.log_marginal_likelihood()
    return {
        "step_closed_us": min(step_closed) * 1e6,
        "step_tape_us": min(step_tape) * 1e6,
        "step_speedup": min(step_tape) / min(step_closed),
        "fit_closed_ms": min(fit_closed) * 1e3,
        "fit_tape_ms": min(fit_tape) * 1e3,
        "fit_speedup": min(fit_tape) / min(fit_closed),
        "nlml": nlml,
        "abs_dnlml": abs(nlml + tape.log_marginal_likelihood()),
    }


def test_bench_gp_fit():
    sizes = {str(n): _measure(n) for n in SIZES}
    record = {"d": DIM, "n_iters": N_ITERS, "repeats": REPEATS, "sizes": sizes}
    print()
    print(f"{'n':>5} {'closed us':>10} {'tape us':>10} {'step x':>7} "
          f"{'fit closed ms':>14} {'fit tape ms':>12} {'|dNLML|':>10}")
    for n, row in sizes.items():
        print(f"{n:>5} {row['step_closed_us']:>10.0f} {row['step_tape_us']:>10.0f} "
              f"{row['step_speedup']:>7.2f} {row['fit_closed_ms']:>14.2f} "
              f"{row['fit_tape_ms']:>12.2f} {row['abs_dnlml']:>10.2e}")
    record_bench("BENCH_GP_FIT", record)
    for row in sizes.values():
        assert row["abs_dnlml"] <= 1e-8 * abs(row["nlml"])
        assert row["step_closed_us"] <= row["step_tape_us"]
