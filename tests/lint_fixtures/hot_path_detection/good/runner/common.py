"""Detection-metrics fixture taking its verdicts from the batched
classifier and keeping one occupant's visits."""


def evaluate_adm_on_attacked(adm, reported, labels, occupant_id):
    return [
        (labels(visit), anomalous)
        for visit, anomalous in adm.flag_visits(reported)
        if visit.occupant_id == occupant_id
    ]
