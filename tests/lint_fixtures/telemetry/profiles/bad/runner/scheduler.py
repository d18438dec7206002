"""Scheduler-shaped fixture keeping its own profile beside the events."""

from repro.events import processors
from repro.events.processors import SchedulerProfile, TaskRecord


class Scheduler:
    def __init__(self, slots):
        self.profile = processors.SchedulerProfile(jobs=sum(slots.values()))

    def record(self, task, seconds):
        self.profile.tasks.append(TaskRecord(task, task, 0.0, seconds, False))


def empty_profile():
    return SchedulerProfile(jobs=1)
