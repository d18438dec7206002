"""Feasibility fixture: runs are judged over mask arrays; only the
oracle asks the capability per slot."""


def _apply_visit_feasibility(schedule, actual, capability):
    ok = capability.slot_mask(len(actual)) & capability.zone_mask(actual)
    return reduce_runs(schedule, ok)


def _apply_visit_feasibility_reference(schedule, actual, capability):
    return all(
        capability.can_attack_slot(t) and capability.can_spoof_zone(zone)
        for t, zone in enumerate(actual)
    )
