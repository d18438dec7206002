"""Binary array-frame codec: the one encoding for structured values.

House traces, fitted-ADM decision surfaces, shard results and spilled
payloads are dominated by numpy arrays.  Every one of them is stored
in the cache's disk tiers and sent home from remote workers as a frame,
a nested container of arrays laid out as::

    RAF1 | header length (uint32 LE) | header JSON | pad | buffers...

The header JSON carries a *manifest* — the container structure with
scalar leaves embedded — plus a buffer table (dtype, shape, C/F memory
order, byte offset, byte length, crc32) describing the concatenated raw
array buffers that follow.  Buffers are 64-byte aligned, so decoding is
one ``np.frombuffer`` per array over the frame's memory — zero-copy.

Checksum policy: every buffer's crc32 is stored, and every decode
verifies every buffer it reads, so a torn or flipped frame fails loudly
at any size (as :class:`~repro.errors.ConfigurationError`) before a
wrong value can reach a caller.

Decoded arrays are read-only views of the frame buffer (callers that
need to mutate copy explicitly, which is also the existing contract for
shared cache entries).  Round-trips are bit-exact: dtypes (including
byte order), shapes, memory order, container types (list vs tuple), and
scalar types are all preserved.

The manifest's leaves are a closed set: JSON scalars, lists, tuples,
dicts (any encodable keys), bytes, numpy arrays and scalars of a
non-object dtype, and dataclass instances.  Anything else (enum
members, sets, arbitrary objects) raises ``ConfigurationError`` naming
its type.  Decoding never executes stored code, but a dataclass node
names the class the decoder imports and instantiates, so frames are
for trusted storage and trusted coordinator↔worker links.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import struct
import zlib
from typing import Any

import numpy as np

from repro.errors import ConfigurationError

FRAME_MAGIC = b"RAF1"
FRAME_VERSION = 1

# Buffer alignment inside a frame.  64 covers every numpy itemsize and
# keeps decoded arrays cache-line aligned.
_ALIGN = 64

# Node tags used in the manifest tree.  Single-key dicts keep the
# header compact; the tag set is closed by _decode_node.
_N_SCALAR = "v"  # embedded JSON scalar (None/bool/int/float/str)
_N_LIST = "l"
_N_TUPLE = "t"
_N_DICT = "d"  # [[key node, value node], ...] — keys need not be str
_N_ARRAY = "a"  # buffer index
_N_NPSCALAR = "s"  # buffer index of a 0-d array; decodes to a np scalar
_N_BYTES = "b"  # buffer index of raw bytes
_N_DATACLASS = "dc"  # [module, qualname, [[field, node], ...]]


def _pad(n: int) -> int:
    return -n % _ALIGN


class _Encoder:
    def __init__(self) -> None:
        self.buffers: list[dict] = []
        self.chunks: list[bytes] = []
        self._offset = 0

    def _add_buffer(self, raw: bytes, dtype: str | None, shape, order: str | None) -> int:
        index = len(self.buffers)
        self.buffers.append(
            {
                "dtype": dtype,
                "shape": list(shape) if shape is not None else None,
                "order": order,
                "offset": self._offset,
                "nbytes": len(raw),
                "crc32": zlib.crc32(raw),
            }
        )
        self.chunks.append(raw)
        padding = _pad(len(raw))
        if padding:
            self.chunks.append(b"\x00" * padding)
        self._offset += len(raw) + padding
        return index

    def node(self, value: Any) -> dict:
        if value is None or type(value) in (bool, int, float, str):
            return {_N_SCALAR: value}
        if type(value) is list:
            return {_N_LIST: [self.node(item) for item in value]}
        if type(value) is tuple:
            return {_N_TUPLE: [self.node(item) for item in value]}
        if type(value) is dict:
            return {
                _N_DICT: [[self.node(k), self.node(v)] for k, v in value.items()]
            }
        if type(value) is bytes:
            return {_N_BYTES: self._add_buffer(value, None, None, None)}
        if isinstance(value, np.generic) and not value.dtype.hasobject:
            arr = np.asarray(value)
            return {_N_NPSCALAR: self._add_buffer(arr.tobytes(), arr.dtype.str, (), "C")}
        if isinstance(value, np.ndarray) and not value.dtype.hasobject:
            arr = value
            if arr.flags.c_contiguous or arr.ndim <= 1:
                order = "C"
            elif arr.flags.f_contiguous:
                order = "F"
            else:
                arr = np.ascontiguousarray(arr)
                order = "C"
            # order="A" serializes in the array's own memory order, so
            # an F-contiguous array is written without transposing.
            raw = arr.tobytes(order="A")
            return {_N_ARRAY: self._add_buffer(raw, arr.dtype.str, arr.shape, order)}
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            fields = [
                [f.name, self.node(getattr(value, f.name))]
                for f in dataclasses.fields(value)
            ]
            return {
                _N_DATACLASS: [
                    type(value).__module__,
                    type(value).__qualname__,
                    fields,
                ]
            }
        raise ConfigurationError(
            f"array frame cannot encode {type(value).__module__}."
            f"{type(value).__qualname__} values"
        )


def encode_frame(value: Any) -> bytes:
    """Serialize ``value`` (nested containers of arrays) to one frame."""
    encoder = _Encoder()
    manifest = encoder.node(value)
    header = json.dumps(
        {
            "version": FRAME_VERSION,
            "manifest": manifest,
            "buffers": encoder.buffers,
        },
        separators=(",", ":"),
    ).encode()
    prefix_len = len(FRAME_MAGIC) + 4 + len(header)
    parts = [
        FRAME_MAGIC,
        struct.pack("<I", len(header)),
        header,
        b"\x00" * _pad(prefix_len),
    ]
    parts.extend(encoder.chunks)
    return b"".join(parts)


class _Decoder:
    def __init__(self, buf, data_start: int, buffers: list[dict]) -> None:
        self._buf = buf  # bytes | memoryview over the whole frame
        self._start = data_start
        self._buffers = buffers

    def _raw(self, index: Any) -> tuple[memoryview, dict]:
        if not isinstance(index, int) or not 0 <= index < len(self._buffers):
            raise ConfigurationError(f"array frame names unknown buffer {index!r}")
        meta = self._buffers[index]
        offset = self._start + int(meta["offset"])
        nbytes = int(meta["nbytes"])
        if offset < 0 or nbytes < 0 or offset + nbytes > len(self._buf):
            raise ConfigurationError(
                f"array frame buffer {index} exceeds the frame (truncated?)"
            )
        chunk = memoryview(self._buf)[offset : offset + nbytes]
        if zlib.crc32(chunk) != int(meta["crc32"]):
            raise ConfigurationError(f"array frame buffer {index} fails its checksum")
        return chunk, meta

    def _array(self, index: Any) -> np.ndarray:
        chunk, meta = self._raw(index)
        dtype = np.dtype(str(meta["dtype"]))
        shape = tuple(int(n) for n in (meta["shape"] or ()))
        order = "F" if meta.get("order") == "F" else "C"
        expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else dtype.itemsize
        if len(chunk) != expected:
            raise ConfigurationError(
                f"array frame buffer {index} holds {len(chunk)} bytes "
                f"but dtype/shape require {expected}"
            )
        flat = np.frombuffer(chunk, dtype=dtype)
        return flat.reshape(shape, order=order)

    def node(self, node: Any) -> Any:
        if not isinstance(node, dict) or len(node) != 1:
            raise ConfigurationError(f"malformed array-frame node: {node!r}")
        ((tag, body),) = node.items()
        if tag == _N_SCALAR:
            return body
        if tag == _N_LIST:
            return [self.node(item) for item in body]
        if tag == _N_TUPLE:
            return tuple(self.node(item) for item in body)
        if tag == _N_DICT:
            return {self.node(k): self.node(v) for k, v in body}
        if tag == _N_ARRAY:
            return self._array(body)
        if tag == _N_NPSCALAR:
            return self._array(body)[()]
        if tag == _N_BYTES:
            chunk, _ = self._raw(body)
            return bytes(chunk)
        if tag == _N_DATACLASS:
            return self._dataclass(body)
        raise ConfigurationError(f"unknown array-frame node tag {tag!r}")

    def _dataclass(self, body: Any) -> Any:
        module_name, qualname, fields = body
        try:
            obj: Any = importlib.import_module(str(module_name))
            for part in str(qualname).split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError) as error:
            raise ConfigurationError(
                f"array frame names unknown dataclass "
                f"{module_name}.{qualname}: {error}"
            ) from error
        if not (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
            raise ConfigurationError(
                f"array frame target {module_name}.{qualname} is not a dataclass"
            )
        values = {str(name): self.node(node) for name, node in fields}
        init = {f.name for f in dataclasses.fields(obj) if f.init}
        instance = obj(**{k: v for k, v in values.items() if k in init})
        for name, value in values.items():
            if name not in init:
                object.__setattr__(instance, name, value)
        return instance


def _parse_header(buf) -> tuple[dict, int]:
    """Validate magic/version; returns ``(header, data start offset)``."""
    if len(buf) < len(FRAME_MAGIC) + 4:
        raise ConfigurationError("array frame is too short for its header")
    if bytes(buf[: len(FRAME_MAGIC)]) != FRAME_MAGIC:
        raise ConfigurationError("not an array frame (bad magic)")
    (header_len,) = struct.unpack("<I", buf[len(FRAME_MAGIC) : len(FRAME_MAGIC) + 4])
    prefix_len = len(FRAME_MAGIC) + 4 + header_len
    if prefix_len > len(buf):
        raise ConfigurationError("array frame header is truncated")
    try:
        header = json.loads(bytes(buf[len(FRAME_MAGIC) + 4 : prefix_len]).decode())
    except (ValueError, UnicodeDecodeError) as error:
        raise ConfigurationError(f"array frame header is corrupt: {error}") from error
    if not isinstance(header, dict) or header.get("version") != FRAME_VERSION:
        raise ConfigurationError(
            f"unsupported array-frame version "
            f"{header.get('version') if isinstance(header, dict) else header!r}"
        )
    return header, prefix_len + _pad(prefix_len)


def decode_frame(raw) -> Any:
    """Invert :func:`encode_frame` over in-memory bytes, verifying every
    buffer's checksum.

    Decoded arrays are read-only zero-copy views into ``raw``; pass the
    result to ``np.copy`` / ``.copy()`` where mutation is needed.
    """
    header, data_start = _parse_header(raw)
    decoder = _Decoder(raw, data_start, list(header.get("buffers") or []))
    return decoder.node(header.get("manifest"))


def estimate_payload_bytes(value: Any) -> int:
    """A cheap size estimate of ``value``'s frame, without encoding it.

    Used by the spill path to decide whether a result is worth writing
    to shared storage instead of the socket.  Array and bytes leaves
    are exact; everything else is a small per-node constant, which is
    fine — spilling is thresholded in the hundreds of kilobytes, where
    arrays dominate any real payload.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, np.generic):
        return int(value.dtype.itemsize)
    if type(value) is bytes:
        return len(value)
    if type(value) is str:
        return 16 + len(value)
    if type(value) in (list, tuple):
        return 16 + sum(estimate_payload_bytes(item) for item in value)
    if type(value) is dict:
        return 16 + sum(
            estimate_payload_bytes(k) + estimate_payload_bytes(v)
            for k, v in value.items()
        )
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return 64 + sum(
            estimate_payload_bytes(getattr(value, f.name))
            for f in dataclasses.fields(value)
        )
    return 32
