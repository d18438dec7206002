"""Rogue driver: span-DP internals called from outside the sanctioned
call graph, and scalar geometry back in the hot path."""


def shatter_schedule(tasks, hull):
    spans = [stay_range(task, hull) for task in tasks]
    return [_optimize_span(span) for span in spans]


def _assemble_schedule(plans):
    return _optimize_spans_batch(plans)
