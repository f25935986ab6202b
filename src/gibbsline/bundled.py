"""Bundled model/potential pairs used by the scripts, configs and tests."""

from __future__ import annotations

from .potential import Family, MarkovPotential, TailDescriptor, TailKind
from .shift_model import ModelKind, ShiftModel

BUNDLED_NAMES = ("log_quadratic", "tie_two_loops", "renewal_weighted")


def bundled_pair(name: str) -> tuple[ShiftModel, MarkovPotential]:
    """Named pair (ambient model, potential).

    log_quadratic: full shift with the j-independent coercive potential.
    tie_two_loops: full shift, zero on {0,1}^2, steeply negative elsewhere.
    renewal_weighted: renewal shift with linearly decaying edge weights.
    non_summable_renewal: renewal shift carrying zero weights on the
    descending edges; its 1-cylinder series diverges.
    """
    if name == "log_quadratic":
        model = ShiftModel(ModelKind.FULL)
        return model, MarkovPotential(model, Family.LOG_QUADRATIC)
    if name == "tie_two_loops":
        model = ShiftModel(ModelKind.FULL)
        return model, MarkovPotential(model, Family.TIE_TWO_LOOPS)
    if name == "renewal_weighted":
        model = ShiftModel(ModelKind.RENEWAL)
        return model, MarkovPotential(model, Family.RENEWAL_WEIGHTED)
    if name == "non_summable_renewal":
        model = ShiftModel(ModelKind.RENEWAL)
        entries = [(0, j, 0.0) for j in range(0, 17)]
        entries += [(i, i - 1, 0.0) for i in range(1, 17)]
        tail = TailDescriptor(TailKind.GEOMETRIC, a=0.0, b=0.0)
        return model, MarkovPotential(model, Family.TABLE, table=tuple(entries), tail=tail)
    raise ValueError(f"unknown bundled pair {name!r}")
