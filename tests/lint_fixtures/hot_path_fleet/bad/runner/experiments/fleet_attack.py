"""Fleet fixture scheduling each home of a chunk through the one-job
front door."""

from repro.attack.schedule import shatter_schedule


def _run_chunk(analyses):
    return [shatter_schedule(*analysis.schedule_inputs()) for analysis in analyses]
