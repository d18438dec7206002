"""Schedule fixture: the batch planner reads capability masks; only the
reference planner and the reference driver ask per slot and per zone."""


def _plan_vector_job(job, capability, n_slots):
    attackable = capability.slot_mask(n_slots)
    return attackable[::1440] & attackable[1439::1440]


def _accessible_segments_reference(occupant_id, day_trace, capability, day_start):
    return [
        capability.can_attack_slot(day_start + t) and capability.can_spoof_zone(zone)
        for t, zone in enumerate(day_trace)
    ]


def _shatter_schedule_reference(capability, n_days):
    return [day for day in range(n_days) if capability.can_attack_slot(day * 1440)]
