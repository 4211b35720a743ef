"""A chaos-consulting wrapper around a bare cell function.

The production hook is :class:`repro.sweep.runner._BatchKernel`, which
runs ``ChaosPlan.before_cell`` on every cell it dispatches.  The
supervisor tests drive :func:`repro.perf.supervise.supervised_indexed`
directly, without the runner, so they wrap their cell function in
:class:`ChaosWrapped` to get the same behaviour: the plan is read from
the environment at call time, inside the worker process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.perf.chaos import active_plan


@dataclass
class ChaosWrapped:
    """A picklable kernel wrapper consulting the env plan at call time.

    Pool workers (and workers restarted after a reap) read the plan
    from their own environment, so they see the same script the
    supervisor does.
    """

    fn: Callable[[Mapping[str, Any]], Any]

    def __call__(self, params: Mapping[str, Any]) -> Any:
        plan = active_plan()
        if plan is not None:
            plan.before_cell(params)
        return self.fn(params)
