"""Stealth fixture taking its verdicts from the batched classifier."""


def attack_visit_flag_fraction(adm, trace, attacked):
    flagged = [anomalous for visit, anomalous in adm.flag_visits(trace) if attacked(visit)]
    return sum(flagged) / max(1, len(flagged))
