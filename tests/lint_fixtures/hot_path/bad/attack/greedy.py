"""Greedy fixture recomputing per-day rewards and poking schedule
internals instead of going through the batched front door."""


def greedy_order(days):
    return [_day_rewards(day) for day in days]


def warm_start(spans):
    return _optimize_spans_batch(spans)
