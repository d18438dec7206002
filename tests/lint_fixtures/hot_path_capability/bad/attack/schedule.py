"""Schedule fixture whose batch planner gates every day through the
scalar capability predicate."""


def _plan_vector_job(job, capability, n_days):
    return [
        day
        for day in range(n_days)
        if capability.can_attack_slot(day * 1440)
        and capability.can_attack_slot(day * 1440 + 1439)
    ]


def _accessible_segments_reference(occupant_id, day_trace, capability, day_start):
    return [capability.can_spoof_zone(zone) for zone in day_trace]
