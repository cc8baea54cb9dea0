"""Engine backends: one engine, plus one plan-cache backend.

The simulator's *physics* — switches, credits, arbiters, flow control,
link models, injection, metrics, fault/workload schedules — is one fixed
contract; *how the loop finds its work each slot* is a pluggable axis
like arbiters and topologies.  A backend is selected by the validated
``SimConfig.backend`` field, flows through every sweep job into the
content-addressed cache key, and is constructed via
:func:`make_simulator`.  The two shipped backends are

* ``"slot"`` — :class:`~repro.simulator.engine.Simulator`: the paper's
  slot loop over a busy agenda (see :mod:`repro.simulator.engine`); the
  default, and the reference the golden fingerprints pin.  ``"event"``
  is an alias :class:`~repro.simulator.config.SimConfig` stores as
  ``"slot"``.
* ``"array"`` — :class:`~repro.simulator.array_backend.ArraySimulator`:
  the same engine, phases and agenda, with a plan cache around the Q+P
  request scan.  Record-identical to ``"slot"``
  (``tests/experiments/test_backend_equivalence.py``), faster only on
  dense congested points.

Adding a backend: subclass :class:`~repro.simulator.engine.Simulator`,
set ``backend_name``, override ``_allocate`` (the other phases are one
scan each over counts the switches keep, with nothing left to skip),
then register it here — ``ENGINE_BACKENDS.register("mine", MySimulator)``
— and it becomes selectable via ``SimConfig(backend="mine")``, with
cache keys, sweeps and the CLI ``--backend`` flag picking it up
unchanged.  See the README's "Backends" section for a worked recipe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..topology.base import Network
    from .config import SimConfig
    from .engine import Simulator


#: Engine backends by ``SimConfig.backend`` name.  Lazily registered so
#: that the backend modules (which import this one) resolve on first
#: use instead of at import time.
ENGINE_BACKENDS = Registry("engine backend")
ENGINE_BACKENDS.register_lazy(
    "slot", "repro.simulator.engine", "Simulator",
    aliases=("event",),
    display="Slot loop (busy agenda)",
)
ENGINE_BACKENDS.register_lazy(
    "array", "repro.simulator.array_backend", "ArraySimulator",
    display="Slot loop + Q+P plan cache",
)


def make_simulator(
    config: SimConfig | None = None,
    network: Network | None = None,
    mechanism: Any = None,
    traffic: Any = None,
    **kwargs: Any,
) -> Simulator:
    """Build the simulator ``config.backend`` names (the public façade).

    Parameters mirror :class:`~repro.simulator.engine.Simulator`:
    ``network``, ``mechanism`` and ``traffic`` are required; every
    engine keyword passes through unchanged.  ``config`` defaults to
    the paper's Table 2 (and therefore the ``"slot"`` backend).  Prefer
    this over constructing a backend class directly: a config naming
    ``backend="array"`` yields the plan-cache engine without the caller
    knowing the class.
    """
    from .config import PAPER_CONFIG

    if config is None:
        config = PAPER_CONFIG
    if network is None or mechanism is None or traffic is None:
        raise TypeError(
            "make_simulator requires network, mechanism and traffic"
        )
    backend_cls = ENGINE_BACKENDS[config.backend]
    sim: Simulator = backend_cls(
        network, mechanism, traffic, config=config, **kwargs
    )
    return sim
