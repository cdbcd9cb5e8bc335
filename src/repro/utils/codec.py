"""One strict codec between config dataclasses and JSON values.

:func:`encode` and :func:`decode` work from the dataclass fields and
their type hints, so no config class restates its field names or
defaults; :class:`Codec` gives a class ``as_dict`` / ``from_dict``
through them. ``docs/api.md`` ("Config wire format") states the five
encoding rules and the decode rules.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from typing import Any, Callable, TypeVar

__all__ = ["Codec", "decode", "encode", "positional"]

T = TypeVar("T")

_SCALARS = (str, int, float, bool, type(None))

#: The JSON types each leaf hint accepts: exact types, so a bool is no int.
_LEAVES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), dict: (dict,)}


def positional(cls: type[T]) -> type[T]:
    """Mark a record dataclass to encode as ``[field0, field1, ...]``."""
    cls.__codec_positional__ = True
    return cls


#: Per-class ``(fields, positional)``, built on first use; each field is
#: ``(name, omit, hint, required)``, in field order.
_PLANS: dict[type, tuple] = {}


def _plan(cls: type) -> tuple:
    plan = _PLANS.get(cls)
    if plan is None:
        hints = typing.get_type_hints(cls)
        fields = tuple(
            (
                f.name,
                _omit_rule(f, hints[f.name]),
                hints[f.name],
                f.default is f.default_factory is dataclasses.MISSING,
            )
            for f in dataclasses.fields(cls)
        )
        plan = _PLANS[cls] = (fields, hasattr(cls, "__codec_positional__"))
    return plan


def _optional_arg(hint) -> Any:
    """``X`` for a hint ``X | None``, else ``None``."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    return args[0] if union and len(args) == 1 else None


def _omit_rule(f: dataclasses.Field, hint) -> Callable[[Any], bool] | None:
    """When a field is left off the wire (rules 2, 3 and 5)."""
    if f.metadata.get("omit_default"):
        return lambda value: value == f.default
    if dataclasses.is_dataclass(_optional_arg(hint)):
        return lambda value: value is None
    factory = f.default_factory
    empty = f.default if factory is dataclasses.MISSING else factory()
    if empty == () or empty == {}:
        return lambda value: not value
    return None


def encode(obj: Any) -> Any:
    """The JSON-safe wire form of a dataclass tree."""
    plan = _PLANS.get(type(obj))
    if plan is None:
        if isinstance(obj, (tuple, list)):
            return [encode(v) for v in obj]
        if isinstance(obj, dict):
            return {k: encode(v) for k, v in obj.items()}
        if isinstance(obj, _SCALARS) or not dataclasses.is_dataclass(obj):
            return obj
        plan = _plan(type(obj))
    fields, is_positional = plan
    if is_positional:
        return [encode(getattr(obj, name)) for name, *_ in fields]
    out = {}
    for name, omit, _, _ in fields:
        value = getattr(obj, name)
        if omit is None or not omit(value):
            out[name] = value if type(value) in _SCALARS else encode(value)
    return out


def decode(cls: type[T], data: Any) -> T:
    """Build a ``cls`` from its wire form; bad input raises ``ValueError``."""
    fields, is_positional = _plan(cls)
    if is_positional:
        if not isinstance(data, (list, tuple)) or len(data) != len(fields):
            raise ValueError(
                f"{cls.__name__} must be a list of {len(fields)} values, got {data!r}"
            )
        data = {name: value for (name, *_), value in zip(fields, data)}
    elif not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {data!r}")
    unknown = sorted(set(data).difference(name for name, *_ in fields))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    missing = [name for name, _, _, required in fields if required and name not in data]
    if missing:
        raise ValueError(f"missing {cls.__name__} key(s): {', '.join(missing)}")
    where = cls.__name__ + "."
    kwargs = {n: _value(h, data[n], where + n) for n, _, h, _ in fields if n in data}
    return cls(**kwargs)


def _value(hint, value: Any, where: str) -> Any:
    """One field's value from JSON, checked against its type hint."""
    if hint in _LEAVES:
        if type(value) in _LEAVES[hint]:
            return dict(value) if hint is dict else value
    elif (inner := _optional_arg(hint)) is not None:
        return None if value is None else _value(inner, value, where)
    elif dataclasses.is_dataclass(hint):
        return decode(hint, value)
    elif typing.get_origin(hint) is tuple and isinstance(value, (list, tuple)):
        args = typing.get_args(hint)
        if args[1:] == (Ellipsis,):
            args = args[:1] * len(value)
        if len(value) == len(args):
            return tuple(_value(a, v, where) for a, v in zip(args, value))
    expected = hint.__name__ if isinstance(hint, type) else str(hint)
    raise ValueError(f"{where} must be {expected}, got {type(value).__name__} {value!r}")


class Codec:
    """A dataclass's ``as_dict`` / ``from_dict``: :func:`encode` / :func:`decode`."""

    as_dict = encode
    from_dict = classmethod(decode)
