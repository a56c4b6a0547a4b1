"""JSON files read, by load_record, as dataclass records of their type hints.

One rule types every value: a bool is never an int, an int serves as a
float and a float is finite, null fills an Optional, a list becomes the
hinted tuple and an object the hinted record or dict[str, X] (a plain dict
keeps it as it is). A record refuses unknown keys and needs every field
without a default; hints resolve once per class.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from pathlib import Path

_NAMES = {str: "a string", bool: "a boolean", int: "an integer", float: "a number", type(None): "null"}


def admits(hint, value) -> bool:
    """Whether value is of hint as a read builds it (a tuple for a tuple hint)."""
    if typing.get_origin(hint) is tuple:
        return type(value) is tuple and all(admits(typing.get_args(hint)[0], v) for v in value)
    return _fits(_kind(hint)[0], value)


def check_fields(record, error: type[Exception]) -> None:
    """Raise error, naming the field, where the dataclass record holds a
    value that its field's hint does not admit."""
    for name, hint in _hints(type(record)).items():
        if not admits(hint, getattr(record, name)):
            raise error(f"{name} must be {_kind(hint)[1]}, got {getattr(record, name)!r}")


def load_record(path, read, error: type[Exception], data: bytes | None = None):
    """read(doc) of the JSON document doc in the file at path, or in data
    where the caller holds the file's bytes (a member of an archive). The
    bytes are UTF-8. Every error names path: a file that cannot be read or
    parsed raises error, and a ValueError from read keeps its type."""
    try:
        text = (Path(path).read_bytes() if data is None else data).decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    try:
        return read(doc)
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_record(cls, doc, error: type[Exception]):
    """The record of dataclass cls that the JSON object doc holds. A value
    that does not fit raises error naming its field path, such as
    objects[4].name."""
    return _reader(cls)(doc, "", error)


def _fits(accepted: tuple[type, ...], value) -> bool:
    # JSON cannot write NaN or an infinity back
    return type(value) in accepted and (type(value) is not float or math.isfinite(value))


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


@functools.cache
def _kind(hint) -> tuple[tuple[type, ...], str]:
    """The Python types a value of hint may have as a read builds it, and
    the hint's name in JSON terms."""
    if typing.get_origin(hint) is tuple:
        return (tuple,), "a list"
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    args = typing.get_args(hint) if union else (hint,)
    accepted = tuple(t for arg in args for t in ((int, float) if arg is float else (arg,)))
    return accepted, " or ".join(_NAMES.get(arg, "an object") for arg in args)


@functools.cache
def _reader(hint):
    """The function (value, its field path, error) -> the value read as hint."""
    if dataclasses.is_dataclass(hint):
        fields = dataclasses.fields(hint)
        readers = {f.name: _reader(_hints(hint)[f.name]) for f in fields}
        required = {f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING}

        def read_record(doc, path, error):
            if type(doc) is not dict:
                raise error(f"{path or 'the document'} must be an object, got {doc!r}")
            prefix = f"{path}." if path else ""
            kwargs = {}
            for key, value in doc.items():
                kwargs[key] = readers.get(key, _unknown)(value, prefix + key, error)
            if not required <= kwargs.keys():
                raise error(f"{path or 'the document'} lacks field {min(required - kwargs.keys())}")
            return hint(**kwargs)

        return read_record
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        item = _reader(args[0])

        def read_list(value, path, error):
            if type(value) is not list:
                raise error(f"{path} must be a list, got {value!r}")
            return tuple([item(v, f"{path}[{i}]", error) for i, v in enumerate(value)])

        return read_list
    if origin is dict:
        item = _reader(args[1])

        def read_dict(value, path, error):
            if type(value) is not dict:
                raise error(f"{path or 'the document'} must be an object, got {value!r}")
            return {key: item(v, f"{path}.{key}", error) for key, v in value.items()}

        return read_dict
    if args[1:] == (type(None),) and typing.get_origin(args[0]) in (tuple, dict):
        # Optional[X] of a list or object X
        read_inner = _reader(args[0])
        return lambda value, path, error: None if value is None else read_inner(value, path, error)
    accepted, name = _kind(hint)

    def read_plain(value, path, error):
        if not _fits(accepted, value):
            raise error(f"{path} must be {name}, got {value!r}")
        return value

    return read_plain


def _unknown(value, path: str, error: type[Exception]):
    raise error(f"{path} is not a field")
