"""Stealth fixture classifying attack visits one at a time on the
scalar hull tier."""

from repro.dataset.features import extract_visits


def attack_visit_flag_fraction(adm, trace, attacked):
    visits = [visit for visit in extract_visits(trace) if attacked(visit)]
    flagged = [
        not adm.is_benign_visit(v.occupant_id, v.zone_id, v.arrival, v.stay)
        for v in visits
    ]
    return sum(flagged) / max(1, len(flagged))
