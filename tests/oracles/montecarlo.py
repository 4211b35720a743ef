"""The scalar Monte Carlo estimator (test oracle).

:func:`repro.ecc.montecarlo.logical_error_rate` decodes every trial in
one batch and is pinned to this one-trial-at-a-time loop's exact
seeded failure counts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ecc.montecarlo import (
    MonteCarloResult,
    _validate,
    sample_depolarizing,
)
from repro.ecc.stabilizer import DecodingError, StabilizerCode

__all__ = ["logical_error_rate_reference"]


def logical_error_rate_reference(
    code: StabilizerCode,
    physical_error_rate: float,
    trials: int = 2000,
    seed: Optional[int] = None,
) -> MonteCarloResult:
    """Scalar one-trial-at-a-time estimator (executable specification).

    Retained so the equivalence tests can assert the batched path
    reproduces its exact seeded failure counts.
    """
    _validate(physical_error_rate, trials)
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        error = sample_depolarizing(code.n, physical_error_rate, rng)
        try:
            _, ok = code.correct(error)
        except DecodingError:
            ok = False
        if not ok:
            failures += 1
    return MonteCarloResult(
        physical_error_rate=physical_error_rate,
        trials=trials,
        failures=failures,
    )
