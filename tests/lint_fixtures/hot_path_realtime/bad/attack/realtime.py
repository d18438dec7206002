"""Execution fixture stepping the controller slot by slot on the
production path instead of simulating the deceived loop."""


def execute_attack(home, controller, story, actual):
    airflow = [controller.decide(state).airflow_cfm for state in story]
    return plant_response(home, actual, airflow, controller.config)


def execute_attack_reference(home, controller, story, actual):
    return [controller.decide(state) for state in story]
