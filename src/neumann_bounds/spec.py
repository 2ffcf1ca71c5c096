"""The ``kind key=value ...`` grammar of map and density specs.

A kind table maps each kind name to its constructor and a parameter schema,
``{name: cast}``, where ``cast`` turns the value text into the constructor
argument.  A parameter is required unless the constructor gives it a
default.  ``conformal.MAP_KINDS`` and ``densities.DENSITY_KINDS`` are the two
tables; a new kind is one table row.
"""

from __future__ import annotations

import inspect

from .errors import ConfigError


def parse_spec(table, spec, what):
    """Build the object a spec names; every malformed spec raises ConfigError.

    ``what`` ("map", "density") only labels the error messages.  Errors
    raised by the constructor itself (range checks) pass through unchanged.
    """
    tokens = spec.split()
    if not tokens:
        raise ConfigError(f"empty {what} spec")
    kind = tokens[0].lower()
    if kind not in table:
        raise ConfigError(f"unknown {what} kind {kind!r} (valid: {', '.join(table)})")
    ctor, schema = table[kind]
    args = {}
    for tok in tokens[1:]:
        key, eq, text = tok.partition("=")
        if not eq:
            raise ConfigError(f"{what} {kind!r}: expected key=value, got {tok!r}")
        if key not in schema:
            known = ", ".join(schema) or "none"
            raise ConfigError(f"{what} {kind!r}: unknown parameter {key!r} (known: {known})")
        if key in args:
            raise ConfigError(f"{what} {kind!r}: parameter {key!r} given twice")
        try:
            args[key] = schema[key](text)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"{what} {kind!r}: bad value {text!r} for {key}: {exc}") from exc
    signature = inspect.signature(ctor).parameters
    for key in schema:
        if key not in args and signature[key].default is inspect.Parameter.empty:
            raise ConfigError(f"{what} {kind!r}: missing parameter {key!r}")
    return ctor(**args)
