"""BIoTA fixture whose production path tests every slot through the
scalar capability predicate."""


def biota_greedy_attack(home, capability, trace):
    return [capability.can_attack_slot(t) for t in range(trace.n_slots)]


def biota_greedy_attack_reference(home, capability, trace):
    return [capability.can_attack_slot(t) for t in range(trace.n_slots)]
