"""Feasibility fixture whose production path asks the capability about
every slot's zone."""


def _apply_visit_feasibility(schedule, actual, capability):
    return all(capability.can_spoof_zone(zone) for zone in actual)


def _apply_visit_feasibility_reference(schedule, actual, capability):
    return all(capability.can_spoof_zone(zone) for zone in actual)
