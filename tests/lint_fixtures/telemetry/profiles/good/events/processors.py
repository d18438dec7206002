"""Processors-shaped fixture: the aggregator folds events into the
profile, the one place that builds one."""


class ProfileAggregator:
    def __init__(self):
        self.task_events = []

    def scheduler_profile(self):
        profile = SchedulerProfile(jobs=1)
        for event in self.task_events:
            profile.tasks.append(
                TaskRecord(event.key, event.label, 0.0, event.seconds, False)
            )
        return profile
