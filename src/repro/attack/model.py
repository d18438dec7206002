"""The attacker model: capabilities and the δ attack vector.

Section III-B of the paper parameterises the attacker by *accessibility*
— which sensor measurements can be read and altered (per zone, per
occupant RFID stream, per slot) and which appliances can be activated by
inaudible voice commands.  Tables VI and VII of the evaluation vary
exactly these sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import AttackError
from repro.home.builder import SmartHome


@dataclass(frozen=True)
class AttackerCapability:
    """What the attacker can reach.

    Attributes:
        zones: Zone ids whose IAQ/occupancy sensors the attacker can
            read and alter (``Z^A``).  The Outside pseudo-zone 0 is
            always implicitly reachable (reporting someone "out" needs
            no sensor access).
        occupants: Occupant ids whose RFID stream can be spoofed
            (``O^A``).
        appliances: Appliance ids that can be voice-triggered (``D^A``).
        slot_range: Half-open ``(start, stop)`` of attackable slots
            (``T^A``); ``None`` means all slots.
    """

    zones: frozenset[int]
    occupants: frozenset[int]
    appliances: frozenset[int]
    slot_range: tuple[int, int] | None = None

    @staticmethod
    def full_access(home: SmartHome) -> "AttackerCapability":
        """Every sensor, every occupant, every appliance."""
        return AttackerCapability(
            zones=frozenset(range(home.n_zones)),
            occupants=frozenset(range(home.n_occupants)),
            appliances=frozenset(range(home.n_appliances)),
        )

    @staticmethod
    def with_zones(home: SmartHome, zone_ids: list[int]) -> "AttackerCapability":
        """Full occupant/appliance access but limited zone sensors
        (the Table VI sweep)."""
        return AttackerCapability(
            zones=frozenset(zone_ids) | {0},
            occupants=frozenset(range(home.n_occupants)),
            appliances=frozenset(range(home.n_appliances)),
        )

    @staticmethod
    def with_appliances(
        home: SmartHome, appliance_ids: list[int]
    ) -> "AttackerCapability":
        """Full zone/occupant access but limited appliances
        (the Table VII sweep)."""
        return AttackerCapability(
            zones=frozenset(range(home.n_zones)),
            occupants=frozenset(range(home.n_occupants)),
            appliances=frozenset(appliance_ids),
        )

    def can_attack_slot(self, slot: int) -> bool:
        if self.slot_range is None:
            return True
        return self.slot_range[0] <= slot < self.slot_range[1]

    def can_spoof_zone(self, zone_id: int) -> bool:
        """Whether the attacker can place a phantom occupant in a zone."""
        return zone_id == 0 or zone_id in self.zones

    def slot_mask(self, n_slots: int) -> np.ndarray:
        """:meth:`can_attack_slot` for slots ``0 .. n_slots - 1``, ``[T]``."""
        if self.slot_range is None:
            return np.ones(n_slots, dtype=bool)
        slots = np.arange(n_slots)
        return (self.slot_range[0] <= slots) & (slots < self.slot_range[1])

    def zone_mask(self, zone_ids: np.ndarray) -> np.ndarray:
        """:meth:`can_spoof_zone` elementwise over an array of zone ids."""
        zone_ids = np.asarray(zone_ids)
        reachable = np.fromiter(self.zones, dtype=np.int64, count=len(self.zones))
        return (zone_ids == 0) | np.isin(zone_ids, reachable)

    def schedulable_zones(self, home: SmartHome) -> list[int]:
        """Zones the scheduler may report occupants in (Outside first)."""
        return [z for z in range(home.n_zones) if self.can_spoof_zone(z)]


@dataclass
class AttackVector:
    """The full δ vector of one synthesized attack.

    Attributes:
        spoofed_zone: Reported occupant zones, ``[T, O]`` (``S̄^OT``
            re-expressed as one zone per occupant per slot).
        spoofed_activity: Reported activities, ``[T, O]``.
        delta_co2: Additive CO2 falsification per zone, ``[T, Z]``
            (``δ^C``).
        delta_temperature: Additive temperature falsification, ``[T, Z]``
            (``δ^T``).
        triggered: Appliances adversarially activated, ``[T, D]``
            (``δ^D`` restricted to off->on flips, per Assumption III).
    """

    spoofed_zone: np.ndarray
    spoofed_activity: np.ndarray
    delta_co2: np.ndarray
    delta_temperature: np.ndarray
    triggered: np.ndarray

    def __post_init__(self) -> None:
        if self.spoofed_zone.shape != self.spoofed_activity.shape:
            raise AttackError("spoofed zone/activity shape mismatch")
        if self.delta_co2.shape != self.delta_temperature.shape:
            raise AttackError("delta co2/temperature shape mismatch")
        if self.spoofed_zone.shape[0] != self.delta_co2.shape[0]:
            raise AttackError("spoofed arrays and deltas disagree on slots")

    @property
    def n_slots(self) -> int:
        return self.spoofed_zone.shape[0]

    def presence_delta_count(self, actual_zone: np.ndarray) -> int:
        """How many (slot, occupant) entries the RFID spoof changes."""
        return int((self.spoofed_zone != actual_zone).sum())

    def trigger_count(self) -> int:
        """Total adversarial appliance activations (slot-level)."""
        return int(self.triggered.sum())


def check_capability_consistency(
    vector: AttackVector,
    actual_zone: np.ndarray,
    capability: AttackerCapability,
    home: SmartHome,
) -> None:
    """Verify a vector never exceeds the attacker's accessibility.

    Raises:
        AttackError: On any (slot, occupant) spoof of an inaccessible
            occupant or zone, or a trigger of an inaccessible appliance.
    """
    n_slots, n_occupants = vector.spoofed_zone.shape
    for t in range(n_slots):
        attackable = capability.can_attack_slot(t)
        for occupant in range(n_occupants):
            spoofed = int(vector.spoofed_zone[t, occupant])
            actual = int(actual_zone[t, occupant])
            if spoofed == actual:
                continue
            if not attackable:
                raise AttackError(f"spoof outside attackable slots at t={t}")
            if occupant not in capability.occupants:
                raise AttackError(
                    f"occupant {occupant} RFID is not accessible (t={t})"
                )
            if not capability.can_spoof_zone(spoofed):
                raise AttackError(
                    f"zone {spoofed} sensors are not accessible (t={t})"
                )
            if not capability.can_spoof_zone(actual):
                raise AttackError(
                    f"cannot hide occupant from inaccessible zone {actual} (t={t})"
                )
    triggered_ids = np.flatnonzero(vector.triggered.any(axis=0))
    for appliance_id in triggered_ids:
        if int(appliance_id) not in capability.appliances:
            raise AttackError(f"appliance {appliance_id} is not accessible")
        if not home.appliances[int(appliance_id)].voice_triggerable:
            raise AttackError(
                f"appliance {appliance_id} cannot be voice-triggered"
            )
