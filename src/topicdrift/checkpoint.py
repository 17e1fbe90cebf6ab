"""The one checkpoint reader and writer of the three models (format 2).

A checkpoint is one sorted-key JSON object ``{"arrays", "format_version":
2, "header", "kind"}``: ``header`` holds scalars and config, and each
array is ``{"data", "dtype", "shape"}`` with ``data`` the base64 of its
little-endian bytes.  The model modules map their state to ``(header,
arrays)`` and back and keep their own consistency checks.  Any damaged
file, a format-1 file or one that is not JSON raises ``ParameterError``.
"""

import base64
import binascii
import json
import math
from dataclasses import fields, is_dataclass

import numpy as np

from .errors import ParameterError

FORMAT_VERSION = 2
CHUNK_BYTES = 3 << 16  # a multiple of 3, so only an array's last chunk has base64 padding
# the JSON types a header value may have, by the type it is read as; a bool is never a number
JSON_TYPES = {int: (int,), float: (int, float), dict: (dict,)}


def write_checkpoint(kind, header, arrays, path):
    """Write ``header`` and ``arrays`` (name -> array), one array and chunk at a time.

    Bool arrays are stored as ``|b1``, integer arrays as ``<i8`` and the rest as ``<f8``.
    """
    with open(path, "wb") as f:
        f.write(b'{"arrays": {')
        for i, name in enumerate(sorted(arrays)):
            array = np.asarray(arrays[name])
            dtype = "|b1" if array.dtype == bool else "<i8" if array.dtype.kind in "iu" else "<f8"
            flat = np.ascontiguousarray(array, dtype=dtype).reshape(-1).view(np.uint8)
            f.write(f'{", " if i else ""}{json.dumps(name)}: {{"data": "'.encode())
            for start in range(0, flat.size, CHUNK_BYTES):
                f.write(base64.b64encode(flat[start:start + CHUNK_BYTES]))
            f.write(f'", "dtype": "{dtype}", "shape": {json.dumps(list(array.shape))}}}'.encode())
        f.write(f'}}, "format_version": {FORMAT_VERSION}, "header": {json.dumps(header, sort_keys=True)}, '
                f'"kind": {json.dumps(kind)}}}'.encode())


def _decode_array(name, entry, dtype, ndim):
    """The array of one ``arrays`` entry, which must have ``dtype``, ``ndim`` axes and strict base64."""
    entry = entry if isinstance(entry, dict) else {}
    shape, data = entry.get("shape"), entry.get("data")
    if entry.get("dtype") != dtype or not isinstance(data, str) or not isinstance(shape, list):
        raise ParameterError(f"checkpoint array {name!r} is not a {dtype} array")
    if len(shape) != ndim or not all(type(n) is int and n >= 0 for n in shape):
        raise ParameterError(f"checkpoint array {name!r} has shape {shape!r}, not {ndim} sizes")
    try:
        raw = base64.b64decode(data, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ParameterError(f"checkpoint array {name!r}: bad base64 ({exc})") from None
    if len(raw) != math.prod(shape) * np.dtype(dtype).itemsize:
        raise ParameterError(f"checkpoint array {name!r} holds {len(raw)} bytes, not shape {shape}")
    if dtype == "|b1" and raw.translate(None, b"\x00\x01"):
        raise ParameterError(f"checkpoint array {name!r} holds a byte that is not a bool")
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def read_checkpoint(path, kinds):
    """(kind, header, arrays) of a checkpoint whose kind is a key of ``kinds``.

    ``kinds[kind]`` maps each array's name to its (dtype, ndim); only those
    arrays are decoded.
    """
    with open(path, "rb") as f:
        try:
            payload = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise ParameterError(f"{path} is not a JSON checkpoint") from None
    payload = payload if isinstance(payload, dict) else {}
    version, kind = payload.get("format_version"), payload.get("kind")
    header, arrays = payload.get("header"), payload.get("arrays")
    if type(version) is int and version < FORMAT_VERSION:
        raise ParameterError(f"{path} is a format-{version} checkpoint, no longer read; re-train the model")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParameterError(f"{path} is not a format-{FORMAT_VERSION} checkpoint")
    if not isinstance(kind, str) or kind not in kinds:
        raise ParameterError(f"unsupported checkpoint kind {kind!r}")
    if not isinstance(header, dict) or not isinstance(arrays, dict):
        raise ParameterError(f"{path} lacks the header or the arrays")
    # each array's base64 text is dropped as soon as it is decoded
    return kind, header, {name: _decode_array(name, arrays.pop(name, None), *spec)
                          for name, spec in kinds[kind].items()}


def header_value(header, name, kind, nullable=False):
    """``header[name]``, which must be a ``kind`` (int, float or dict); None only if ``nullable``."""
    if not isinstance(header, dict) or name not in header:
        raise ParameterError(f"checkpoint header lacks {name!r}")
    value = header[name]
    if value is None and nullable:
        return None
    if isinstance(value, bool) or not isinstance(value, JSON_TYPES[kind]):
        raise ParameterError(f"checkpoint header field {name!r} is not a {kind.__name__}")
    return value


def config_from(cls, raw):
    """The (nested) dataclass ``cls`` from the header dict ``dataclasses.asdict`` made of it."""
    return cls(**{
        f.name: config_from(f.type, header_value(raw, f.name, dict)) if is_dataclass(f.type)
        else header_value(raw, f.name, f.type)
        for f in fields(cls)
    })
