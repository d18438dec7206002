"""Simulation fixture whose fast kernel asks the controller for every
slot instead of running the inlined control laws."""


def simulate(home, trace, controller):
    if is_fixed(controller):
        decision = controller.decide(probe(home))
        return _simulate_fast(home, trace, controller, decision)
    return simulate_reference(home, trace, controller)


def _simulate_fast(home, trace, controller, fixed):
    return [controller.decide(state).airflow_cfm for state in trace]


def simulate_reference(home, trace, controller):
    return [controller.decide(state) for state in trace]
