"""A codec that falls back to pickle for values the frame cannot encode."""

import pickle
from pickle import loads


def encode(value, frame):
    try:
        return frame(value)
    except TypeError:
        return pickle.dumps(value)


def decode(raw):
    return loads(raw)
