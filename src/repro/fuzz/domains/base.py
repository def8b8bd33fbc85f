"""The :class:`FuzzDomain` protocol: modality glue for the fuzzing engines.

The fuzzing *algorithm* (Alg. 1) only assumes greybox HV-distance
access — the paper's Sec. V-E generality claim.  Everything that is
specific to an input modality lives in a domain object instead of the
engines:

* how raw inputs are **validated and stacked** into the internal array
  representation the engines vectorize over (images stay float64
  pixel grids; strings become uint8 code arrays; records stay float64
  feature vectors);
* the **default perturbation constraint** for the modality (and its
  metric-free exceptions, e.g. ``shift``);
* the **strategy namespace** (which registered mutation strategies
  apply) and the modality's default strategy;
* the **encode surface** — whether the model's encoder supports the
  incremental (delta) path, via the shared ``DELTA_ENCODER_API``
  duck-typing check.

Domains are registered by name (``"image"``, ``"text"``, ``"record"``,
with ``"voice"`` aliasing ``"record"``) so engines, campaigns, and the
CLI can resolve them from plain strings; :func:`infer_domain` guesses
the domain of a raw input for error messages and convenience.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, Optional, Sequence, Type, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.fuzz.constraints import Constraint
from repro.fuzz.mutations.base import strategy_names as _strategy_names

__all__ = [
    "DELTA_ENCODER_API",
    "FuzzDomain",
    "register_domain",
    "create_domain",
    "resolve_domain",
    "infer_domain",
    "domain_names",
    "get_domain_class",
]

#: Duck-typed surface an encoder must expose for the incremental
#: (delta) encode path.  ``hvs_from_accumulators`` is part of it so the
#: accumulator→hypervector rule (Eq. 1 tie-breaking) stays owned by the
#: encoder; over the bipolar space (``Encoder.SPACE``) that rule is
#: Eq. 1's sign, so the engines hand bipolar popcount memories
#: ``sign_words(accumulators)`` directly.  Shared by the sequential and
#: batched engines across every domain.
DELTA_ENCODER_API = (
    "quantize",
    "accumulate_batch",
    "accumulate_delta",
    "hvs_from_accumulators",
)


class FuzzDomain(ABC):
    """Owns everything modality-specific about a fuzzing campaign.

    The engines only ever see the domain's *internal representation*:
    a numpy array per input, stackable into an ``(n, …)`` batch, whose
    bytes key the dedupe caches and whose rows ride the seed pools.
    Raw (external) inputs cross into that representation exactly once,
    at campaign entry, and cross back exactly once, when an adversarial
    example is reported.
    """

    #: Registry key; also the strategy-namespace tag strategies carry.
    name: ClassVar[str] = ""
    #: Alternative registry names (e.g. ``"voice"`` for the record domain).
    aliases: ClassVar[tuple[str, ...]] = ()
    #: Strategy used when a campaign does not name one.
    default_strategy: ClassVar[str] = ""

    # -- resolution --------------------------------------------------------
    @classmethod
    def for_model(cls, model: Any = None) -> "FuzzDomain":
        """Build a domain instance, optionally adapted to *model*.

        The default ignores the model; domains with model-dependent
        state (the text domain's alphabet) override this.
        """
        return cls()

    # -- raw ↔ internal representation -------------------------------------
    @abstractmethod
    def matches(self, item: Any) -> bool:
        """Whether *item* looks like a raw input of this modality."""

    @abstractmethod
    def to_internal(self, item: Any) -> np.ndarray:
        """Validate one raw input and return its internal array form."""

    def to_external(self, internal: np.ndarray) -> Any:
        """Convert an internal array back to the user-facing input form."""
        return np.asarray(internal).copy()

    def stack(self, inputs: Sequence[Any]) -> np.ndarray:
        """Validate and stack raw inputs into an ``(n, …)`` internal batch."""
        rows = [self.to_internal(item) for item in inputs]
        try:
            return np.stack(rows)
        except ValueError as exc:
            raise ConfigurationError(
                f"{self.name} inputs must share one shape to batch: {exc}"
            ) from None

    # -- modality defaults -------------------------------------------------
    @abstractmethod
    def default_constraint(self, strategy: Any) -> Constraint:
        """The modality's default perturbation budget for *strategy*."""

    def validate_strategy(self, strategy: Any) -> None:
        """Reject strategies incompatible with this domain instance.

        The namespace tag is checked by the engines; this hook is for
        *instance-level* compatibility (the text domain requires the
        strategy's replacement alphabet to match its own).  Default:
        everything in the namespace is fine.
        """

    def strategy_names(self) -> list[str]:
        """Registered mutation strategies in this domain's namespace."""
        return _strategy_names(self.name)

    # -- encode surface ----------------------------------------------------
    def delta_encoder(self, model: Any) -> Optional[Any]:
        """The model's encoder when it supports incremental encoding.

        Returns ``None`` when any part of :data:`DELTA_ENCODER_API` is
        missing, in which case the engines fall back to scratch
        ``encode_batch`` calls.
        """
        encoder = getattr(model, "encoder", None)
        if encoder is not None and all(
            callable(getattr(encoder, name, None)) for name in DELTA_ENCODER_API
        ):
            return encoder
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


_DOMAINS: dict[str, Type[FuzzDomain]] = {}


def register_domain(cls: Type[FuzzDomain]) -> Type[FuzzDomain]:
    """Class decorator adding *cls* to the registry under name + aliases."""
    if not cls.name:
        raise ConfigurationError(f"{cls.__name__} must define a non-empty `name`")
    for key in (cls.name, *cls.aliases):
        if key in _DOMAINS:
            raise ConfigurationError(f"domain name {key!r} is already registered")
        _DOMAINS[key] = cls
    return cls


def domain_names(*, include_aliases: bool = True) -> list[str]:
    """Registered domain names (CLI choices)."""
    if include_aliases:
        return sorted(_DOMAINS)
    return sorted({cls.name for cls in _DOMAINS.values()})


def get_domain_class(name: str) -> Type[FuzzDomain]:
    """The domain class registered under *name* (raises on unknown names)."""
    try:
        return _DOMAINS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown fuzzing domain {name!r}; available: {domain_names()}"
        ) from None


def create_domain(name: str, *, model: Any = None) -> FuzzDomain:
    """Instantiate the domain registered under *name*.

    When *model* is given, the domain may adapt to it (the text domain
    reads the model encoder's alphabet and unknown-character policy).
    """
    return get_domain_class(name).for_model(model)


def resolve_domain(
    domain: Union[None, str, FuzzDomain],
    *,
    strategy: Any = None,
    model: Any = None,
) -> FuzzDomain:
    """Normalise a ``domain`` argument into a :class:`FuzzDomain`.

    ``None`` infers the domain from the mutation strategy's namespace
    tag; a string goes through the registry; instances pass through.
    """
    if isinstance(domain, FuzzDomain):
        return domain
    if isinstance(domain, str):
        return create_domain(domain, model=model)
    if domain is None:
        if strategy is None or not getattr(strategy, "domain", ""):
            raise ConfigurationError(
                "cannot infer a fuzzing domain: pass `domain` explicitly"
            )
        return create_domain(strategy.domain, model=model)
    raise ConfigurationError(
        f"domain must be a name, FuzzDomain or None, got {type(domain).__name__}"
    )


def infer_domain(item: Any, *, model: Any = None) -> FuzzDomain:
    """Guess the domain of one raw input (string → text, 2-D → image, …)."""
    seen: set[Type[FuzzDomain]] = set()
    for cls in _DOMAINS.values():
        if cls in seen:
            continue
        seen.add(cls)
        probe = cls.for_model(model)
        if probe.matches(item):
            return probe
    raise ConfigurationError(
        f"no registered domain matches input of type {type(item).__name__}; "
        f"available: {domain_names(include_aliases=False)}"
    )
