"""Pauli algebra in binary-symplectic form.

A Pauli operator on ``n`` qubits (ignoring global phase, tracking sign
only modulo {+1, -1, +i, -i} as an exponent of i) is represented by two
length-``n`` binary vectors ``x`` and ``z``: qubit ``q`` carries X iff
``x[q]``, Z iff ``z[q]``, and Y iff both.  This is the standard
representation used by stabilizer-code machinery; everything downstream
(syndromes, decoding, Monte Carlo noise) is built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

_CHAR_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_CHAR = {v: k for k, v in _CHAR_TO_XZ.items()}


@dataclass(frozen=True)
class Pauli:
    """An n-qubit Pauli operator with a phase exponent of i.

    ``phase`` is an integer modulo 4: the operator equals
    ``i**phase * X^x Z^z`` (X factors to the left of Z factors on each
    qubit).  Equality and hashing use the canonical tuple form.
    """

    x: Tuple[int, ...]
    z: Tuple[int, ...]
    phase: int = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def identity(n: int) -> "Pauli":
        return Pauli(x=(0,) * n, z=(0,) * n)

    @staticmethod
    def from_label(label: str) -> "Pauli":
        """Build from a string like ``"XIZZY"`` (qubit 0 leftmost)."""
        xs, zs = [], []
        for ch in label.upper():
            if ch not in _CHAR_TO_XZ:
                raise ValueError(f"invalid Pauli character {ch!r}")
            x, z = _CHAR_TO_XZ[ch]
            xs.append(x)
            zs.append(z)
        return Pauli(x=tuple(xs), z=tuple(zs))

    @staticmethod
    def single(n: int, qubit: int, kind: str) -> "Pauli":
        """A weight-one Pauli of ``kind`` in {X, Y, Z} on ``qubit``."""
        if not 0 <= qubit < n:
            raise ValueError("qubit index out of range")
        x = [0] * n
        z = [0] * n
        xq, zq = _CHAR_TO_XZ[kind.upper()]
        if (xq, zq) == (0, 0):
            raise ValueError("kind must be X, Y or Z")
        x[qubit], z[qubit] = xq, zq
        return Pauli(x=tuple(x), z=tuple(z))

    def __post_init__(self) -> None:
        if len(self.x) != len(self.z):
            raise ValueError("x and z parts must have equal length")
        object.__setattr__(self, "phase", self.phase % 4)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def weight(self) -> int:
        """Number of qubits acted on non-trivially."""
        return sum(1 for xq, zq in zip(self.x, self.z) if xq or zq)

    def is_identity(self) -> bool:
        return self.weight == 0

    def label(self) -> str:
        return "".join(_XZ_TO_CHAR[(xq, zq)] for xq, zq in zip(self.x, self.z))

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        sign = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase]
        return f"{sign}{self.label()}"

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def commutes_with(self, other: "Pauli") -> bool:
        """True iff the two operators commute (symplectic product 0)."""
        if self.n != other.n:
            raise ValueError("operator sizes differ")
        sym = sum(
            sx * oz + sz * ox
            for sx, sz, ox, oz in zip(self.x, self.z, other.x, other.z)
        )
        return sym % 2 == 0

    def __mul__(self, other: "Pauli") -> "Pauli":
        """Operator product (self applied after other)."""
        if self.n != other.n:
            raise ValueError("operator sizes differ")
        # i exponent from reordering X^x1 Z^z1 X^x2 Z^z2 into canonical
        # form: Z^z1 X^x2 = (-1)^(z1.x2) X^x2 Z^z1.
        anticommutations = sum(
            z1 * x2 for z1, x2 in zip(self.z, other.x)
        )
        phase = (self.phase + other.phase + 2 * anticommutations) % 4
        x = tuple((a + b) % 2 for a, b in zip(self.x, other.x))
        z = tuple((a + b) % 2 for a, b in zip(self.z, other.z))
        return Pauli(x=x, z=z, phase=phase)

    def support(self) -> Tuple[int, ...]:
        """Indices of qubits acted on non-trivially."""
        return tuple(
            q for q, (xq, zq) in enumerate(zip(self.x, self.z)) if xq or zq
        )

    def restricted_label(self, qubits: Sequence[int]) -> str:
        """Label of the operator restricted to the given qubits."""
        return "".join(
            _XZ_TO_CHAR[(self.x[q], self.z[q])] for q in qubits
        )

    # ------------------------------------------------------------------
    # numpy interop
    # ------------------------------------------------------------------
    def symplectic(self) -> np.ndarray:
        """The length-2n binary vector ``[x | z]``."""
        return np.array(list(self.x) + list(self.z), dtype=np.uint8)

    @staticmethod
    def from_symplectic(vec: np.ndarray, phase: int = 0) -> "Pauli":
        vec = np.asarray(vec, dtype=np.uint8) % 2
        if vec.ndim != 1 or vec.size % 2:
            raise ValueError("symplectic vector must be 1-D of even length")
        n = vec.size // 2
        return Pauli(
            x=tuple(int(v) for v in vec[:n]),
            z=tuple(int(v) for v in vec[n:]),
            phase=phase,
        )


def symplectic_matrix(paulis: Iterable[Pauli]) -> np.ndarray:
    """Stack Pauli operators as rows of a binary symplectic matrix."""
    rows = [p.symplectic() for p in paulis]
    if not rows:
        return np.zeros((0, 0), dtype=np.uint8)
    return np.vstack(rows)


def symplectic_gram(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """GF(2) anticommutation matrix between two symplectic batches.

    ``left`` is ``(a, 2n)`` and ``right`` is ``(b, 2n)``; entry ``[i, j]``
    is 1 iff row ``i`` of ``left`` anticommutes with row ``j`` of
    ``right``.  This is the batched form of :meth:`Pauli.commutes_with`:
    one integer matrix product replaces ``a * b`` Python-level symplectic
    inner products, which is what makes whole-batch syndrome extraction
    a single matmul.
    """
    left = np.atleast_2d(np.asarray(left, dtype=np.uint8))
    right = np.atleast_2d(np.asarray(right, dtype=np.uint8))
    if left.shape[1] != right.shape[1] or left.shape[1] % 2:
        raise ValueError("symplectic batches must share an even width")
    n = left.shape[1] // 2
    # Swap the halves of ``right`` so a plain dot product computes the
    # symplectic form x1.z2 + z1.x2.
    swapped = np.hstack([right[:, n:], right[:, :n]])
    return (left.astype(np.int64) @ swapped.T.astype(np.int64)) & 1


def enumerate_errors(n: int, max_weight: int) -> Iterator[Pauli]:
    """All non-identity Paulis on ``n`` qubits of weight <= max_weight.

    Only weights 1 and 2 are supported — enough for distance-3 and
    distance-5 decoding tables — to keep enumeration tractable.
    """
    if max_weight < 1:
        return
    kinds = "XYZ"
    for q in range(n):
        for k in kinds:
            yield Pauli.single(n, q, k)
    if max_weight >= 2:
        for q1 in range(n):
            for q2 in range(q1 + 1, n):
                for k1 in kinds:
                    for k2 in kinds:
                        yield Pauli.single(n, q1, k1) * Pauli.single(n, q2, k2)
    if max_weight >= 3:
        raise NotImplementedError("error enumeration supports weight <= 2")
