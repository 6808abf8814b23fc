"""Exact group arithmetic, non-unique product set constructions, and their verifier."""

__version__ = "0.1.0"

from .words import (
    ELLIPTIC,
    HYPERBOLIC,
    GroupParams,
    NormalForm,
    ParseError,
    from_string,
    from_word,
    generator,
    identity,
    parse,
)
from .sets import (
    FactorizationTable,
    GroupSet,
    make_set,
    product_table,
    unique_products,
)
from .families import FamilySpec, SliceLabel, build_family, expected_cardinality

__all__ = [
    "ELLIPTIC",
    "HYPERBOLIC",
    "GroupParams",
    "NormalForm",
    "ParseError",
    "FactorizationTable",
    "GroupSet",
    "FamilySpec",
    "SliceLabel",
    "build_family",
    "expected_cardinality",
    "from_string",
    "from_word",
    "generator",
    "identity",
    "make_set",
    "parse",
    "product_table",
    "unique_products",
    "__version__",
]
