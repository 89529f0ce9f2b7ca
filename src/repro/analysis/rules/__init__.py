"""Bundled rules; importing this package registers them all."""

from repro.analysis.rules import (  # noqa: F401
    broad_except,
    concurrency_rules,
    constants_audit,
    float_eq,
    hotpath,
    numeric_safety,
    units,
)
