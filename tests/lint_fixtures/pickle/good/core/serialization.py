"""Values the frame cannot encode raise; nothing falls back to pickle."""

import json


def encode(value, frame):
    try:
        return frame(value)
    except TypeError as error:
        raise ValueError(f"cannot encode {type(value).__name__}") from error


def encode_record(record):
    return json.dumps(record)
