"""Binary array-frame codec: bit-exact round-trips and torn-frame safety."""

import dataclasses
import enum

import numpy as np
import pytest

from repro.core.arrayframe import (
    FRAME_MAGIC,
    decode_frame,
    encode_frame,
    estimate_payload_bytes,
)
from repro.core.serialization import decode_artifact_file, encode_artifact
from repro.errors import ConfigurationError


@dataclasses.dataclass
class _Point:
    xy: np.ndarray
    label: str


@dataclasses.dataclass(frozen=True)
class _Frozen:
    values: np.ndarray
    note: str


class _Color(enum.Enum):
    RED = "red"


def _assert_same_array(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes(order="A") == b.tobytes(order="A")


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "dtype",
    [np.int64, np.int32, np.float64, np.float32, np.bool_, np.uint8],
)
def test_array_round_trip_per_dtype(dtype):
    arr = np.arange(24).reshape(4, 6).astype(dtype)
    clone = decode_frame(encode_frame(arr))
    _assert_same_array(arr, clone)


def test_fortran_order_preserved():
    arr = np.asfortranarray(np.arange(12.0).reshape(3, 4))
    clone = decode_frame(encode_frame(arr))
    assert clone.flags.f_contiguous
    _assert_same_array(arr, clone)
    np.testing.assert_array_equal(arr, clone)


def test_non_contiguous_array_is_compacted():
    arr = np.arange(100).reshape(10, 10)[::2, ::3]
    clone = decode_frame(encode_frame(arr))
    np.testing.assert_array_equal(arr, clone)


def test_zero_dim_and_empty_arrays():
    for arr in (np.array(3.5), np.zeros((0, 5), dtype=np.int64)):
        clone = decode_frame(encode_frame(arr))
        _assert_same_array(arr, clone)


def test_numpy_scalars_keep_their_types():
    payload = (np.float64(2.5), np.int64(-3), np.bool_(True))
    clone = decode_frame(encode_frame(payload))
    assert type(clone[0]) is np.float64 and clone[0] == 2.5
    assert type(clone[1]) is np.int64 and clone[1] == -3
    assert type(clone[2]) is np.bool_ and bool(clone[2]) is True


def test_nested_containers_and_non_string_dict_keys():
    payload = {
        "rows": [np.arange(5), (1, 2.5, "x", None, True)],
        3: {"inner": np.eye(2)},
        (1, 2): b"raw-bytes",
    }
    clone = decode_frame(encode_frame(payload))
    assert set(clone) == {"rows", 3, (1, 2)}
    np.testing.assert_array_equal(clone["rows"][0], np.arange(5))
    assert clone["rows"][1] == (1, 2.5, "x", None, True)
    assert type(clone["rows"][1]) is tuple
    np.testing.assert_array_equal(clone[3]["inner"], np.eye(2))
    assert clone[(1, 2)] == b"raw-bytes"


def test_dataclass_round_trip_including_frozen():
    point = _Point(xy=np.array([1.0, 2.0]), label="p")
    frozen = _Frozen(values=np.arange(3), note="n")
    clone_p, clone_f = decode_frame(encode_frame([point, frozen]))
    assert isinstance(clone_p, _Point) and clone_p.label == "p"
    np.testing.assert_array_equal(clone_p.xy, point.xy)
    assert isinstance(clone_f, _Frozen) and clone_f.note == "n"
    np.testing.assert_array_equal(clone_f.values, frozen.values)


def test_decoded_arrays_are_zero_copy_readonly_views():
    raw = encode_frame(np.arange(1000, dtype=np.int64))
    clone = decode_frame(raw)
    assert not clone.flags.writeable, "decoded arrays must be read-only views"
    assert clone.base is not None, "decode must not copy the buffer"
    writable = clone.copy()
    writable[0] = -1  # the documented escape hatch


def test_exotic_leaf_raises_naming_its_type():
    """A leaf outside the manifest's closed set has no second codec to
    fall back to: encoding raises and names the type."""
    for encode in (encode_frame, encode_artifact):
        with pytest.raises(ConfigurationError, match=r"test_arrayframe\._Color"):
            encode({"color": _Color.RED, "arr": np.arange(3)})
    with pytest.raises(ConfigurationError, match=r"builtins\.set"):
        encode_frame([{1, 2}])


# ----------------------------------------------------------------------
# Torn / corrupt frames
# ----------------------------------------------------------------------


def test_bad_magic_rejected():
    raw = bytearray(encode_frame(np.arange(4)))
    raw[:4] = b"JUNK"
    with pytest.raises(ConfigurationError, match="magic"):
        decode_frame(bytes(raw))


def test_truncated_header_rejected():
    raw = encode_frame(np.arange(4))
    with pytest.raises(ConfigurationError):
        decode_frame(raw[:6])
    with pytest.raises(ConfigurationError):
        decode_frame(raw[: len(FRAME_MAGIC) + 4 + 3])


def test_truncated_buffer_rejected_even_without_crc():
    """The bounds check fires before the checksum is computed."""
    raw = encode_frame(np.arange(1000, dtype=np.int64))
    torn = raw[:-64]
    with pytest.raises(ConfigurationError, match="truncated|exceeds"):
        decode_frame(torn)


def test_flipped_bit_fails_checksum():
    raw = bytearray(encode_frame(np.arange(1000, dtype=np.int64)))
    raw[-1] ^= 0xFF
    with pytest.raises(ConfigurationError, match="checksum"):
        decode_frame(bytes(raw))


# ----------------------------------------------------------------------
# File decodes
# ----------------------------------------------------------------------


def test_artifact_file_wrapper(tmp_path):
    path = tmp_path / "artifact.raf"
    path.write_bytes(encode_artifact({"arr": np.arange(10)}))
    clone = decode_artifact_file(path)
    np.testing.assert_array_equal(clone["arr"], np.arange(10))
    assert not clone["arr"].flags.writeable


# ----------------------------------------------------------------------
# Size estimation
# ----------------------------------------------------------------------


def test_estimate_payload_bytes_tracks_array_sizes():
    small = estimate_payload_bytes({"a": np.zeros(8)})
    large = estimate_payload_bytes({"a": np.zeros(100_000)})
    assert small < 1024
    assert large >= 800_000
    assert estimate_payload_bytes(b"x" * 100) >= 100
    assert estimate_payload_bytes(_Point(xy=np.zeros(4), label="p")) >= 32
