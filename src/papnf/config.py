"""Dict conversion for the config dataclasses, checked against their field annotations.

Every error is a ``ConfigError`` whose message names the key path, such as
``model.backbone.d``; ``schema`` derives the key tree the command line accepts.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing

__all__ = ["ConfigError", "DictConfig", "check_value", "schema"]


class ConfigError(ValueError):
    """Invalid configuration key or value; the message names the key path."""


@functools.cache
def _hints(cls) -> dict[str, object]:
    return typing.get_type_hints(cls)  # once per class: every checkpoint load comes here


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _is_config(tp) -> bool:
    return isinstance(tp, type) and issubclass(tp, DictConfig)


def check_value(value, tp, path: str):
    """Return ``value`` if it fits annotation ``tp``, else raise ConfigError.

    ``int`` rejects bool and float, ``float`` accepts int, ``bool`` must be a
    bool, ``X | None`` allows None, ``list[X]`` checks every item, and a config
    dataclass takes an instance or the dict it is built from.
    """
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(tp):
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    if typing.get_origin(tp) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        (item,) = typing.get_args(tp)
        return [check_value(v, item, f"{path}[{i}]") for i, v in enumerate(value)]
    if _is_config(tp):
        return value if isinstance(value, tp) else tp.from_dict(value, path)
    if tp is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, tp) and not (tp is int and isinstance(value, bool))
    if not ok:
        raise ConfigError(f"{path}: expected {tp.__name__}, got {value!r}")
    return value


class DictConfig:
    """Mixin for config dataclasses: ``to_dict`` and a checked ``from_dict``."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d, path: str = ""):
        """Build from a dict, rejecting unknown, missing and ill-typed keys."""
        where = path or cls.__name__
        if not isinstance(d, dict):
            raise ConfigError(f"{where}: expected an object, got {d!r}")
        fields = dataclasses.fields(cls)
        unknown = sorted(set(d) - {f.name for f in fields})
        if unknown:
            raise ConfigError("unknown config keys: " + ", ".join(_join(path, k) for k in unknown))
        missing = [
            _join(path, f.name)
            for f in fields
            if f.name not in d
            and f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ]
        if missing:
            raise ConfigError("missing config keys: " + ", ".join(missing))
        hints = _hints(cls)
        kwargs = {k: check_value(v, hints[k], _join(path, k)) for k, v in d.items()}
        try:
            return cls(**kwargs)
        except ValueError as err:
            raise ConfigError(f"{where}: {err}") from None


def schema(cls, skip: tuple[str, ...] = ()) -> dict:
    """Allowed-key tree of a config dataclass; None marks a leaf key."""
    hints = _hints(cls)
    return {
        f.name: schema(hints[f.name]) if _is_config(hints[f.name]) else None
        for f in dataclasses.fields(cls)
        if f.name not in skip
    }
