"""Execution fixture: the fast path simulates, only the oracle decides."""


def execute_attack(home, controller, story, actual):
    shadow = simulate(home, story, controller)
    return plant_response(home, actual, shadow.airflow_cfm, controller.config)


def execute_attack_reference(home, controller, story, actual):
    return [controller.decide(state) for state in story]
