"""BIoTA fixture: the attack reads capability masks; only the oracle
tests slots and zones one at a time."""


def biota_greedy_attack(home, capability, trace):
    eligible = capability.slot_mask(trace.n_slots)
    return eligible & capability.zone_mask(trace.occupant_zone[:, 0])


def biota_greedy_attack_reference(home, capability, trace):
    return [
        capability.can_attack_slot(t)
        and capability.can_spoof_zone(int(trace.occupant_zone[t, 0]))
        for t in range(trace.n_slots)
    ]
