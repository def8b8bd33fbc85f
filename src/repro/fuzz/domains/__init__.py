"""Fuzzing domains: one engine, many input modalities (Sec. V-E).

Importing this package registers the built-in domains, so
``create_domain("text")`` works immediately after ``import repro.fuzz``.
"""

from repro.fuzz.domains.base import (
    DELTA_ENCODER_API,
    FuzzDomain,
    create_domain,
    get_domain_class,
    register_domain,
    resolve_domain,
)
from repro.fuzz.domains.image import ImageDomain
from repro.fuzz.domains.record import RecordDomain
from repro.fuzz.domains.text import TextDomain

__all__ = [
    "DELTA_ENCODER_API",
    "FuzzDomain",
    "ImageDomain",
    "RecordDomain",
    "TextDomain",
    "create_domain",
    "get_domain_class",
    "register_domain",
    "resolve_domain",
]
