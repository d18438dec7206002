"""Stealthiness verification of synthesized attacks (Eqs. 12-16).

These checks are the *defender-side* ground truth the attack synthesis
is tested against: a SHATTER schedule must pass all of them by
construction, while BIoTA-style attacks generally fail the ADM
consistency check — that asymmetry is the paper's central result.
"""

from __future__ import annotations

import numpy as np

from repro.adm.cluster_model import ClusterADM
from repro.home.builder import SmartHome
from repro.home.state import HomeTrace


def reported_trace(
    spoofed_zone: np.ndarray, spoofed_activity: np.ndarray, n_appliances: int
) -> HomeTrace:
    """Wrap a reported occupancy stream as a trace for visit analysis."""
    return HomeTrace(
        occupant_zone=spoofed_zone.copy(),
        occupant_activity=spoofed_activity.copy(),
        appliance_status=np.zeros(
            (spoofed_zone.shape[0], n_appliances), dtype=bool
        ),
    )


def schedule_is_stealthy(
    adm: ClusterADM,
    spoofed_zone: np.ndarray,
    spoofed_activity: np.ndarray,
) -> bool:
    """Eq. 12: every reported visit lies inside an ADM cluster hull."""
    trace = reported_trace(spoofed_zone, spoofed_activity, n_appliances=1)
    return adm.is_benign_trace(trace)


def anomalous_visit_fraction(
    adm: ClusterADM,
    spoofed_zone: np.ndarray,
    spoofed_activity: np.ndarray,
) -> float:
    """Fraction of reported visits the ADM flags (1.0 = fully detected)."""
    trace = reported_trace(spoofed_zone, spoofed_activity, n_appliances=1)
    return adm.anomaly_rate(trace)


def attack_visit_flag_fraction(
    adm: ClusterADM,
    spoofed_zone: np.ndarray,
    spoofed_activity: np.ndarray,
    actual_zone: np.ndarray,
) -> float:
    """Fraction of *attack* visits the ADM flags.

    Only visits of the reported stream that contain at least one
    falsified (slot, occupant) entry count; untouched stretches of real
    behaviour are the defender's false-positive problem, not the
    attacker's detection rate.  Returns 0.0 when nothing was spoofed.
    The verdicts come from :meth:`ClusterADM.flag_visits`.
    """
    trace = reported_trace(spoofed_zone, spoofed_activity, n_appliances=1)
    attacked = 0
    flagged = 0
    for visit, anomalous in adm.flag_visits(trace):
        start = visit.day * 1440 + visit.arrival
        stop = start + visit.stay
        if not (
            spoofed_zone[start:stop, visit.occupant_id]
            != actual_zone[start:stop, visit.occupant_id]
        ).any():
            continue
        attacked += 1
        flagged += anomalous
    if attacked == 0:
        return 0.0
    return flagged / attacked


def occupant_count_preserved(
    spoofed_zone: np.ndarray, actual_zone: np.ndarray
) -> bool:
    """Eq. 13: the spoof moves occupants around, it never adds/removes.

    With one reported zone per occupant per slot (Eq. 18) the total
    reported presence is structurally ``|T|·|O|`` on both sides; the
    check is kept explicit because raw δ-vectors (e.g. BIoTA's) can
    violate it.
    """
    return spoofed_zone.shape == actual_zone.shape


def triggering_is_occupant_stealthy(
    home: SmartHome, triggered: np.ndarray, actual_trace: HomeTrace
) -> bool:
    """Eq. 16: adversarial activations only happen in unoccupied zones."""
    for appliance in home.appliances:
        slots = np.flatnonzero(triggered[:, appliance.appliance_id])
        for t in slots:
            if (actual_trace.occupant_zone[t] == appliance.zone_id).any():
                return False
    return True
