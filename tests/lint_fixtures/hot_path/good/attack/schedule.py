"""Schedule-shaped fixture that obeys the span-DP call graph: every
production span reaches _optimize_spans_batch through _solve_task_wave,
and the scalar span oracle is only bound as the reference driver's
span solver."""

from functools import partial


def _shatter_schedule_reference(job, exhaustive=False):
    solve = partial(_optimize_span_with_retry, job, exhaustive=exhaustive)
    return _segment_fallback(solve, job)


def _optimize_span_with_retry(span, exhaustive=False):
    return _optimize_span(span, exhaustive) or _optimize_span(span)


def _optimize_span(span, exhaustive=False):
    return span


def _segment_fallback(solve, segment):
    return [solve(visit) for visit in segment]


def _assemble_schedule(segment):
    return _segment_fallback(partial(_solve_visit_span, segment), segment)


def _solve_visit_span(segment, visit):
    return _solve_span_tasks([visit])


def _solve_span_tasks(tasks):
    return _solve_task_wave(tasks)


def _solve_task_wave(wave):
    return _optimize_spans_batch(wave)


def _optimize_spans_batch(wave):
    return wave
