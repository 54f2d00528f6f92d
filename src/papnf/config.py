"""Dict conversion for the config dataclasses, checked against their field annotations.

Every error is a ``ConfigError`` whose message names the key path, such as
``model.backbone.d``; unknown keys are collected from every nested section
first, so one message lists them all.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing

__all__ = ["ConfigError", "DictConfig", "check_value"]


class ConfigError(ValueError):
    """Invalid configuration key or value; the message names the key path."""


@functools.cache
def _hints(cls) -> dict[str, object]:
    return typing.get_type_hints(cls)  # once per class: every checkpoint load comes here


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _is_config(tp) -> bool:
    return isinstance(tp, type) and issubclass(tp, DictConfig)


def check_value(value, tp, path: str, keys_checked: bool = False):
    """Return ``value`` if it fits annotation ``tp``, else raise ConfigError.

    ``int`` rejects bool and float, ``float`` accepts int, ``bool`` must be a
    bool, ``X | None`` allows None, ``list[X]`` checks every item, and a config
    dataclass takes an instance or the dict it is built from. ``keys_checked``
    says that such a dict's unknown keys, nested ones too, were looked for
    already, as the ``from_dict`` of the section holding it does.
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
        if isinstance(value, tp):
            return value
        return tp.from_checked_dict(value, path) if keys_checked else tp.from_dict(value, path)
    if tp is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, tp) and not (tp is int and isinstance(value, bool))
    if not ok:
        raise ConfigError(f"{path}: expected {tp.__name__}, got {value!r}")
    return value


def _unknown_keys(cls, d: dict, path: str) -> list[str]:
    """Key paths in ``d`` and its nested section dicts that name no field."""
    names = {f.name for f in dataclasses.fields(cls)}
    bad = []
    for key, value in d.items():
        if key not in names:
            bad.append(_join(path, key))
        elif isinstance(value, dict):  # a section annotated X or X | None
            hint = _hints(cls)[key]
            for sub in filter(_is_config, (hint, *typing.get_args(hint))):
                bad += _unknown_keys(sub, value, _join(path, key))
    return bad


class DictConfig:
    """Mixin for config dataclasses: ``to_dict`` and a checked ``from_dict``."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def check_keys(cls, d: dict, path: str = "") -> None:
        """Reject the keys of d and its nested section dicts that name no field.

        One sorted message lists every such key by its path.
        """
        unknown = _unknown_keys(cls, d, path)
        if unknown:
            raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))

    @classmethod
    def from_dict(cls, d, path: str = ""):
        """Build from a dict, rejecting unknown, missing and ill-typed keys.

        The unknown keys of the whole tree are looked for once, first. Then
        fields are checked in declaration order. A constructor error is
        prefixed with ``path``; at the top level it is the message itself.
        """
        if isinstance(d, dict):
            cls.check_keys(d, path)
        return cls.from_checked_dict(d, path)

    @classmethod
    def from_checked_dict(cls, d, path: str = ""):
        """``from_dict`` for a value whose keys ``check_keys`` already accepted."""
        if not isinstance(d, dict):
            raise ConfigError(f"{path or cls.__name__}: expected an object, got {d!r}")
        fields = dataclasses.fields(cls)
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
        kwargs = {
            f.name: check_value(d[f.name], hints[f.name], _join(path, f.name), keys_checked=True)
            for f in fields
            if f.name in d
        }
        try:
            return cls(**kwargs)
        except ValueError as err:
            raise ConfigError(f"{path}: {err}" if path else str(err)) from None
