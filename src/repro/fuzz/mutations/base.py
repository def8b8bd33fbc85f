"""Mutation-strategy interface and registry (Table I of the paper).

A strategy turns one input into *n* mutated children.  Strategies are
domain-tagged (``"image"`` or ``"text"``) so the fuzzer can sanity-check
that a strategy matches the model's encoder.  The registry maps the
paper's strategy names (``"gauss"``, ``"rand"``, ``"row_rand"``,
``"col_rand"``, ``"row_col_rand"``, ``"shift"``) to classes so campaigns
can be configured from plain strings — as the CLI and benches do.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, ClassVar, Type

import numpy as np

from repro.errors import MutationError
from repro.utils.rng import RngLike, ensure_rng

__all__ = [
    "MutationStrategy",
    "register_strategy",
    "create_strategy",
    "strategy_names",
    "get_strategy_class",
]


class MutationStrategy(ABC):
    """Generates mutated children of an input (Alg. 1, Line 6).

    Subclasses set the class attributes:

    * ``name`` — the registry key (the paper's Table I name);
    * ``domain`` — the fuzzing-domain namespace the strategy belongs to
      (``"image"``, ``"text"``, or ``"record"``; see
      :mod:`repro.fuzz.domains`);
    * ``metric_free`` — True when perturbation distances are not
      meaningful for the strategy (Table II's ``shift`` footnote), in
      which case the domain defaults to
      :class:`~repro.fuzz.constraints.NullConstraint`.
    """

    name: ClassVar[str] = ""
    domain: ClassVar[str] = "image"
    metric_free: ClassVar[bool] = False

    @abstractmethod
    def mutate(self, item: Any, n: int, *, rng: RngLike = None) -> Any:
        """Produce *n* mutated children of *item*.

        Image strategies return an ``(n, H, W)`` float64 array clipped
        to [0, 255]; text strategies an ``(n, L)`` block of alphabet codes.
        Children must be *new* objects — the caller relies on the
        original staying untouched.
        """

    def params(self) -> dict[str, Any]:
        """The strategy's configuration, for reports and reproducibility.

        Default: every non-underscore instance attribute.
        """
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params().items()))
        return f"{type(self).__name__}({inner})"


_REGISTRY: dict[str, Type[MutationStrategy]] = {}


def register_strategy(cls: Type[MutationStrategy]) -> Type[MutationStrategy]:
    """Class decorator adding *cls* to the registry under ``cls.name``."""
    if not cls.name:
        raise MutationError(f"{cls.__name__} must define a non-empty `name`")
    if cls.name in _REGISTRY:
        raise MutationError(f"strategy name {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def strategy_names(domain: str | None = None) -> list[str]:
    """Registered strategy names, optionally filtered by domain."""
    return sorted(
        name
        for name, cls in _REGISTRY.items()
        if domain is None or cls.domain == domain
    )


def get_strategy_class(name: str) -> Type[MutationStrategy]:
    """The class registered under *name* (raises on unknown names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise MutationError(
            f"unknown mutation strategy {name!r}; available: {strategy_names()}"
        ) from None


def create_strategy(name: str, **params: Any) -> MutationStrategy:
    """Instantiate the strategy registered under *name* with *params*."""
    return get_strategy_class(name)(**params)


def _mutate_image_common(image: Any) -> np.ndarray:
    """Shared input coercion for image strategies: float64 (H, W) copy."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise MutationError(f"image must be 2-D (H, W), got shape {arr.shape}")
    return arr
