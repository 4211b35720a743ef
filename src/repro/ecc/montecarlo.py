"""Monte Carlo logical-error-rate estimation for the ECC layer.

Code-capacity noise model: each physical qubit independently suffers a
depolarizing error with probability ``p`` (X, Y, Z equally likely).  One
ideal EC cycle (syndrome extraction + minimum-weight decoding) is
applied and the residual operator is classified.  For distance-3 codes
the logical error rate scales as ``c * p**2`` for small ``p``; the
crossing point with the physical rate is the code's pseudo-threshold.

This validates the reliability assumptions behind the paper's Equation 1
fidelity analysis with an actual decoder rather than a formula.

The estimator is batched end to end: all trials' errors are sampled
into one ``(trials, 2n)`` symplectic bit-array and pushed through
:class:`repro.ecc.stabilizer.BatchDecoder` — one GF(2) matmul for every
syndrome, one fancy-index for every correction, one reduction against
the precomputed trivial-span basis for every residual.  The scalar
one-trial-at-a-time loop is the executable specification, kept as test
code (``tests/oracles/montecarlo.py``); for any fixed seed both paths
produce the *identical* failure count, because the batched sampler
consumes the NumPy generator stream in exactly the per-trial order the
scalar sampler (:func:`sample_depolarizing`) established.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .pauli import Pauli
from .stabilizer import StabilizerCode

#: Symplectic (x, z) rows for a depolarizing kind draw of 0, 1, 2 -> X, Y, Z.
_DEPOLARIZING_LETTERS = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)


@dataclass(frozen=True)
class MonteCarloResult:
    """Outcome of a logical-error-rate estimation run."""

    physical_error_rate: float
    trials: int
    failures: int

    @property
    def logical_error_rate(self) -> float:
        return self.failures / self.trials

    @property
    def standard_error(self) -> float:
        """Binomial standard error of the estimate."""
        p = self.logical_error_rate
        return float(np.sqrt(max(p * (1.0 - p), 1.0 / self.trials) / self.trials))


def sample_depolarizing(
    n: int, p: float, rng: np.random.Generator
) -> Pauli:
    """One iid depolarizing error pattern on ``n`` qubits."""
    row = _sample_rows(n, p, 1, rng)[0]
    return Pauli(
        x=tuple(int(v) for v in row[:n]),
        z=tuple(int(v) for v in row[n:]),
    )


def _sample_rows(
    n: int, p: float, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``trials`` depolarizing patterns as a (trials, 2n) array.

    Each trial draws ``rng.random(n)`` then ``rng.integers(0, 3, n)`` —
    the exact per-trial consumption order of the original scalar
    sampler.  Drawing all trials in two big calls would be faster still,
    but would permute the generator stream and change every seeded
    failure count; the loop body is two vectorized draws plus a masked
    scatter, so it is already far off the critical path.
    """
    batch = np.zeros((trials, 2 * n), dtype=np.uint8)
    for t in range(trials):
        kinds = rng.random(n)
        which = rng.integers(0, 3, size=n)
        hit = np.nonzero(kinds < p)[0]
        if hit.size:
            xz = _DEPOLARIZING_LETTERS[which[hit]]
            batch[t, hit] = xz[:, 0]
            batch[t, hit + n] = xz[:, 1]
    return batch


def sample_depolarizing_batch(
    n: int, p: float, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """``trials`` iid depolarizing patterns as a symplectic bit-array."""
    if trials < 0:
        raise ValueError("trial count cannot be negative")
    return _sample_rows(n, p, trials, rng)


def logical_error_rate(
    code: StabilizerCode,
    physical_error_rate: float,
    trials: int = 2000,
    seed: Optional[int] = None,
) -> MonteCarloResult:
    """Estimate the post-EC logical error rate under depolarizing noise.

    Errors whose syndrome falls outside the minimum-weight table (only
    possible beyond the guaranteed correctable weight) count as failures.

    Thin wrapper over the batched core: for any fixed ``seed`` the
    failure count is bit-identical to the scalar oracle's.
    """
    _validate(physical_error_rate, trials)
    rng = np.random.default_rng(seed)
    batch = sample_depolarizing_batch(code.n, physical_error_rate, trials, rng)
    failures = code.batch_decoder().failure_count(batch)
    return MonteCarloResult(
        physical_error_rate=physical_error_rate,
        trials=trials,
        failures=failures,
    )


def _validate(physical_error_rate: float, trials: int) -> None:
    if not 0.0 <= physical_error_rate <= 1.0:
        raise ValueError("error rate must be a probability")
    if trials <= 0:
        raise ValueError("need a positive trial count")


def pseudo_threshold(
    code: StabilizerCode,
    rates: Sequence[float] = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1),
    trials: int = 4000,
    seed: Optional[int] = None,
) -> float:
    """Estimate where the logical rate crosses the physical rate.

    Scans the given physical rates and linearly interpolates (in log
    space) the crossing of ``p_logical(p) = p``.  Returns the last
    scanned rate when no crossing is bracketed.
    """
    prev_rate, prev_ratio = None, None
    for p in rates:
        result = logical_error_rate(code, p, trials=trials, seed=seed)
        ratio = result.logical_error_rate / p if p else 0.0
        if prev_ratio is not None and prev_ratio < 1.0 <= ratio:
            # Interpolate log(p) between the bracketing scan points.
            lo, hi = np.log(prev_rate), np.log(p)
            frac = (1.0 - prev_ratio) / (ratio - prev_ratio)
            return float(np.exp(lo + frac * (hi - lo)))
        prev_rate, prev_ratio = p, ratio
    return float(rates[-1])
