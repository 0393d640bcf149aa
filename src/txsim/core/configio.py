"""Read the design config and workload spec from their file forms.

Every field is read by its declared type (``typing.get_type_hints`` of its
dataclass): one ``coerce`` turns a text or JSON value into an enum member (by
its lowercase value), a bool, an int, a float, a tuple of ``(name, weight)``
pairs or a nested dataclass.  A number is never read from a JSON boolean, and
an int never from a fraction.  One ``read_fields`` parses the INI-style or
JSON text of a file.  Config files, workload files and sweep-grid cells all
go through the two.

A config file's INI form has a ``[design]`` section with the top-level
``DesignConfig`` fields and a ``[cost_model]`` section for the cost knobs;
its JSON form is one object with a nested ``cost_model`` object.  Both parse
to the same DesignConfig.
"""

from __future__ import annotations

import configparser
import dataclasses
import enum
import json
import typing

from .types import DesignConfig


class ConfigError(ValueError):
    """File text or a field value that cannot be read into its dataclass."""


def _field_types(cls) -> dict:
    if not dataclasses.is_dataclass(cls):
        return {}
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _bool(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in ("true", "1", "yes", "on"):
        return True
    if text in ("false", "0", "no", "off"):
        return False
    raise ValueError(raw)


def _int(raw) -> int:
    # JSON true is not 1, and 2.5 clients are not 2
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError(raw)
    return int(raw)


def _float(raw) -> float:
    if isinstance(raw, bool):
        raise ValueError(raw)
    return float(raw)


def _pairs(raw) -> tuple:
    """``"name:weight,..."`` or ``[[name, weight], ...]`` as ``((name, weight), ...)``."""
    if isinstance(raw, str):
        raw = [p.split(":") for p in raw.split(",") if p.strip()]
    return tuple((str(name).strip(), _float(weight)) for name, weight in raw)


_READERS = {bool: _bool, int: _int, float: _float, tuple: _pairs}


def coerce(cls, name: str, raw):
    """``raw``, as written in a file or a grid, as a value of field ``name`` of ``cls``."""
    kind = _field_types(cls).get(name)
    if kind is None:
        raise ConfigError(f"unknown {cls.__name__} field: {name}")
    return read_as(kind, name, raw)


def read_as(kind, name: str, raw):
    """``raw`` as a value of type ``kind``; ``name`` labels the ``ConfigError``."""
    if isinstance(kind, type) and issubclass(kind, enum.Enum):
        if isinstance(raw, kind):
            return raw
        try:
            return kind(str(raw).strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in kind)
            raise ConfigError(f"{name}: {raw!r} is not one of: {valid}") from None
    if dataclasses.is_dataclass(kind):
        return raw if isinstance(raw, kind) else from_fields(kind, raw)
    try:
        return _READERS[kind](raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: {raw!r} is not a valid {kind.__name__}") from None


def from_fields(cls, data):
    """A ``cls`` from a mapping of its field names to values as written in a file."""
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__} must be an object of fields, got {data!r}")
    return cls(**{name: coerce(cls, name, raw) for name, raw in data.items()})


def with_field(obj, path: str, raw):
    """``obj`` with the field at the dotted ``path`` (``cost_model.F`` nests) set from ``raw``."""
    name, _, rest = path.partition(".")
    if rest and dataclasses.is_dataclass(_field_types(type(obj)).get(name)):
        return dataclasses.replace(obj, **{name: with_field(getattr(obj, name), rest, raw)})
    return dataclasses.replace(obj, **{path: coerce(type(obj), path, raw)})


def read_fields(text: str, section: str):
    """The fields of JSON text (one object) or of INI text.

    In INI text the fields are the keys of ``[section]``, and every other
    section is a nested object named after it, as ``[cost_model]`` is in a
    config file.  Every parse failure is a ``ConfigError``.
    """
    try:
        if text.lstrip().startswith("{"):
            return json.loads(text)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(text)
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse the {section} file: {exc}") from None
    if not parser.sections():
        raise ConfigError(f"the {section} file has no sections; expected [{section}]")
    data = dict(parser[section]) if parser.has_section(section) else {}
    data.update((name, dict(parser[name])) for name in parser.sections() if name != section)
    return data


def config_from_text(text: str) -> DesignConfig:
    """Parse config text, auto-detecting the JSON vs key-value form."""
    return from_fields(DesignConfig, read_fields(text, "design"))


def config_from_file(path) -> DesignConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read())


def _plain(items) -> dict:
    return {k: v.value if isinstance(v, enum.Enum) else v for k, v in items}


def config_to_dict(obj) -> dict:
    """A DesignConfig, CostModel or WorkloadSpec as JSON-compatible fields.

    ``from_fields`` reads the result back to an equal object.
    """
    return dataclasses.asdict(obj, dict_factory=_plain)
