"""Schedule-shaped fixture that obeys the span-DP call graph."""


def _schedule_segment(segment):
    return _optimize_span_with_retry(segment)


def _segment_fallback(segment):
    return _optimize_span_with_retry(segment)


def _optimize_span_with_retry(span):
    return _optimize_span(span)


def _optimize_span(span):
    return _optimize_spans_batch([span])[0]


def _solve_task_wave(wave):
    return _optimize_spans_batch(wave)


def _optimize_spans_batch(wave):
    return wave
