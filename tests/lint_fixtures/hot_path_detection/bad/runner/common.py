"""Detection-metrics fixture classifying one occupant's visits one at a
time on the scalar hull tier."""

from repro.dataset.features import extract_visits


def evaluate_adm_on_attacked(adm, reported, labels, occupant_id):
    return [
        (labels(visit), not adm.is_benign_visit(*visit.key()))
        for visit in extract_visits(reported, occupant_id=occupant_id)
    ]
