"""Fleet fixture scheduling a whole chunk through the batched front
door."""

from repro.core.shatter import shatter_attack_batch


def _run_chunk(analyses):
    return shatter_attack_batch(analyses)
