"""Simulation fixture: the kernel inlines the control laws; only the
oracle steps the controller, and simulate() probes it once."""


def simulate(home, trace, controller):
    if is_fixed(controller):
        decision = controller.decide(probe(home))
        return _simulate_fast(home, trace, controller.config, decision)
    return simulate_reference(home, trace, controller)


def _simulate_fast(home, trace, config, fixed):
    return [_demand_zone(trace, zone, config) for zone in home.zones]


def simulate_reference(home, trace, controller):
    return [controller.decide(state) for state in trace]
