"""The seeded fault-plan primitive every fault injector is built on.

Five subsystems simulate the deployment failing — the LBS path, the serve
dispatcher, the shard supervisor, federated clients and the disk — and
each declares its fault vocabulary as a frozen dataclass deriving from
:class:`SeededFaultPlan` (or :class:`KeyedFaultPlan`).  The vocabulary is
three class attributes:

* ``RATES`` — the rate fields, each named ``<kind>_rate``;
* ``EXCLUSIVE`` — groups of rates one uniform decides between (each
  group sums to at most 1);
* ``NON_NEGATIVE`` — durations and cutoffs that must be ``>= 0``.

Everything else lives here once: validation, ``any_faults``, the
running-sum pick, the keyed per-``(seed, key, attempt)`` decision with
overrides and the max-faults cutoff, and the :class:`FaultTally` that
derives ``total``/``as_dict`` from its count fields.

:meth:`SeededFaultPlan.pick` takes the uniform as an argument and never
draws it.  Whether and when to draw is each injector's draw discipline
(see ``docs/robustness.md``), so shared code never branches on its
caller.
"""

from __future__ import annotations

from dataclasses import Field, fields
from typing import TYPE_CHECKING, Any, ClassVar

from repro.core.errors import ConfigError
from repro.core.rng import derive_rng

__all__ = ["FaultTally", "KeyedFaultPlan", "SeededFaultPlan"]

#: Slack on an exclusive group's sum, so rates like 0.1 + 0.2 + 0.7 that
#: mean 1 but round above it stay valid.
_SUM_TOLERANCE = 1e-12


class SeededFaultPlan:
    """Base of a declarative fault plan (mixed into a frozen dataclass)."""

    __slots__ = ()

    RATES: ClassVar[tuple[str, ...]]
    EXCLUSIVE: ClassVar[tuple[tuple[str, ...], ...]] = ()
    NON_NEGATIVE: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        for name in self.RATES:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        for group in self.EXCLUSIVE:
            if sum(getattr(self, name) for name in group) > 1.0 + _SUM_TOLERANCE:
                raise ConfigError(f"exclusive fault rates ({' + '.join(group)}) exceed 1")
        for name in self.NON_NEGATIVE:
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")

    @property
    def any_faults(self) -> bool:
        """Whether any rate of this plan is positive."""
        return self.rated(self.RATES)

    def rated(self, group: tuple[str, ...]) -> bool:
        """Whether any rate in *group* is positive."""
        return any(getattr(self, name) > 0 for name in group)

    def pick(self, u: float, group: tuple[str, ...]) -> "str | None":
        """The fault kind uniform *u* selects in *group*, or ``None``.

        Kinds are the rate names without ``_rate``; each claims the
        interval between the running sum of the rates before it and that
        sum plus its own rate.
        """
        edge = 0.0
        for name in group:
            edge += getattr(self, name)
            if u < edge:
                return name.removesuffix("_rate")
        return None


class KeyedFaultPlan(SeededFaultPlan):
    """A plan whose decisions are keyed, not drawn from a stream.

    Each decision is one uniform from ``derive_rng(seed, LABEL, *key,
    attempt)``, so a fate never depends on scheduling order.
    ``overrides`` entries ``(*key, fate)`` pin a key to a fate (``"ok"``
    for healthy); attempts beyond the plan's max-faults cutoff are always
    healthy.  Subclasses declare ``seed`` and ``overrides`` fields.
    """

    __slots__ = ()

    LABEL: ClassVar[str]
    #: Names of the key parts, for the overrides error message.
    KEY: ClassVar[tuple[str, ...]]

    if TYPE_CHECKING:

        @property
        def seed(self) -> int: ...

        @property
        def overrides(self) -> tuple[Any, ...]: ...

    def __post_init__(self) -> None:
        super().__post_init__()
        fates = self.fates()
        for entry in self.overrides:
            if len(entry) != len(self.KEY) + 1 or entry[-1] not in fates:
                raise ConfigError(
                    f"overrides entries must be ({', '.join(self.KEY)}, fate) "
                    f"with fate in {fates}"
                )

    @classmethod
    def fates(cls) -> tuple[str, ...]:
        """Every fate an override may pin: the fault kinds, then ``"ok"``."""
        return (*(name.removesuffix("_rate") for name in cls.RATES), "ok")

    @property
    def any_faults(self) -> bool:
        return self.rated(self.RATES) or bool(self.overrides)

    def decide_keyed(
        self, key: tuple[Any, ...], attempt: int, max_faults: int
    ) -> "str | None":
        """Fate of ``(key, attempt)``: None (healthy) or a fault kind."""
        if attempt > max_faults:
            return None
        for *pinned, fate in self.overrides:
            if tuple(pinned) == key:
                return None if fate == "ok" else str(fate)
        u = float(derive_rng(self.seed, self.LABEL, *key, attempt).random())
        return self.pick(u, self.RATES)


class FaultTally:
    """Base of a fault tally (mixed into a dataclass).

    Every ``int`` field counts one fault kind and a ``dict`` field holds
    per-kind counts; fields named in ``BOOKKEEPING`` count operations,
    not faults.  ``as_dict`` lists the bookkeeping fields, then every
    fault count; ``total`` sums the fault counts.
    """

    __slots__ = ()

    BOOKKEEPING: ClassVar[tuple[str, ...]] = ()
    __dataclass_fields__: ClassVar[dict[str, Field[Any]]]

    def _faults(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in fields(self):
            if f.name in self.BOOKKEEPING:
                continue
            value = getattr(self, f.name)
            if isinstance(value, dict):
                counts.update(value)
            else:
                counts[f.name] = value
        return counts

    @property
    def total(self) -> int:
        return sum(self._faults().values())

    def as_dict(self) -> dict[str, int]:
        return {
            **{name: getattr(self, name) for name in self.BOOKKEEPING},
            **self._faults(),
        }
