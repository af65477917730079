"""The JSON shape of configs and results, derived from their dataclass fields.

`plain` is the one dataclass -> JSON mapping: every `to_dict` is
`plain(self)`, so a config's, a result's or a checkpoint section's JSON
keys are its field names in declaration order.  In the other direction `check_keys`,
`check_bools` and `config_values` turn malformed input into ConfigError.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields, is_dataclass

import numpy as np

from .errors import ConfigError, ShapeError


def plain(obj):
    """dataclass -> {field: plain(value)} in field order, tuple/list -> list,
    dict -> dict, ndarray -> nested lists; anything else is returned unchanged."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    return obj


@contextmanager
def config_values(where: str):
    """Re-raise the error a malformed `where` raises as ConfigError; the
    package's ConfigError and ShapeError pass through unchanged."""
    try:
        yield
    except (ConfigError, ShapeError):
        raise
    except (AttributeError, LookupError, TypeError, ValueError) as err:
        detail = f"missing {err}" if isinstance(err, KeyError) else err
        raise ConfigError(f"malformed {where}: {detail}") from err


def check_keys(known, d: dict, where: str) -> None:
    """ConfigError naming every key of `d` that is not in `known`: a collection
    of names, or a dataclass whose field names they are."""
    names = {f.name for f in fields(known)} if is_dataclass(known) else set(known)
    unknown = sorted(set(d) - names)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(map(str, unknown))}")


def check_bools(obj) -> None:
    """TypeError naming the first field annotated `bool` that holds a non-bool."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("bool", bool) and not isinstance(value, bool):
            raise TypeError(f"{f.name} must be true or false, got {value!r}")
