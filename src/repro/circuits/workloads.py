"""Workload registry: named circuit generators for the hierarchy engine.

The engine (:func:`repro.sim.levels.simulate_hierarchy_run`) accepts
any :class:`~repro.circuits.circuit.Circuit`; this registry gives the
sweeps, benchmarks and examples a common vocabulary of named workloads
so a design-space cell can be keyed (and stored) by ``(workload
name, n_bits)`` instead of by an arbitrary gate list.

Shipped workloads:

* ``draper_adder`` — the paper's evaluation workload, one Draper
  carry-lookahead addition in its steady-state (``in_place=False``)
  form, exactly the circuit the Table 5 simulator runs;
* ``qft`` — the quantum Fourier transform, the paper's communication
  stress test (all-to-all operand pairs, very low reuse distance);
* ``modexp_trace`` — back-to-back additions with modular-exponentiation
  locality (accumulator and carry registers re-touched across adders).

Register new workloads with :func:`register_workload`; builders take
one ``n_bits`` size parameter and return a fresh ``Circuit``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .circuit import Circuit
from .draper import carry_lookahead_adder
from .modexp import modexp_addition_trace
from .qft import qft_circuit


@dataclass(frozen=True)
class WorkloadSpec:
    """A named circuit generator plus its default problem size."""

    name: str
    description: str
    default_bits: int
    builder: Callable[[int], Circuit]

    def build(self, n_bits: Optional[int] = None) -> Circuit:
        """Materialize the workload at ``n_bits`` (default size if None)."""
        bits = self.default_bits if n_bits is None else n_bits
        return self.builder(bits)


_REGISTRY: "OrderedDict[str, WorkloadSpec]" = OrderedDict()


def register_workload(
    name: str, description: str, default_bits: int
) -> Callable[[Callable[[int], Circuit]], Callable[[int], Circuit]]:
    """Decorator registering a ``builder(n_bits) -> Circuit`` function."""
    def decorate(builder: Callable[[int], Circuit]):
        if name in _REGISTRY:
            raise ValueError(f"workload {name!r} is already registered")
        _REGISTRY[name] = WorkloadSpec(
            name=name, description=description,
            default_bits=default_bits, builder=builder,
        )
        return builder
    return decorate


def get_workload(name: str) -> WorkloadSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; registered workloads: "
            f"{', '.join(available_workloads())}"
        ) from None


def available_workloads() -> Tuple[str, ...]:
    """All registered workload names, in registration order."""
    return tuple(_REGISTRY)


def build_workload(name: str, n_bits: Optional[int] = None) -> Circuit:
    """Build a registered workload at ``n_bits`` (its default if None)."""
    return get_workload(name).build(n_bits)


@register_workload(
    "draper_adder",
    "one Draper carry-lookahead addition (steady-state form)",
    default_bits=64,
)
def _draper_workload(n_bits: int) -> Circuit:
    return carry_lookahead_adder(n_bits, in_place=False).circuit


@register_workload(
    "qft",
    "exact quantum Fourier transform (all-to-all communication)",
    default_bits=48,
)
def _qft_workload(n_bits: int) -> Circuit:
    return qft_circuit(n_bits)


@register_workload(
    "modexp_trace",
    "back-to-back additions with modular-exponentiation locality",
    default_bits=16,
)
def _modexp_workload(n_bits: int) -> Circuit:
    return modexp_addition_trace(n_bits)
