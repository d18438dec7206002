"""``hot-path-scalar-calls``: keep per-element work out of batched drivers.

The PR 3/PR 6 kernel tiers established a contract the old CI greps and
the test-embedded AST walker enforced piecemeal: the scalar geometry
tier (``point_in_hull`` / ``stay_range`` / ``union_stay_ranges``) is an
equivalence oracle, not a hot-path API, and the span-level DP internals
(``_optimize_span*``, ``_shatter_schedule_reference``) are private to
``attack/schedule.py`` — drivers must enter through
``shatter_schedule`` / ``shatter_schedule_batch`` so fleets advance as
one array program instead of a per-day Python loop.

Everything else is one mechanism: per file, a called name (a method or
a plain function) may be called only inside the functions its
confinement names, and a confinement naming no function bans the call
from the file outright.  This is call-graph-aware where the greps could
not be: the restricted internals may only be called from their
designated callers, not merely "somewhere in the file".

* ``attack/schedule.py``: the one production DP engine,
  ``_optimize_spans_batch``, is entered only from the batch wave solver
  ``_solve_task_wave`` (the per-visit fallback solves each visit span as
  a one-task wave); the scalar span DP ``_optimize_span`` only from its
  retry, which the reference driver binds as its span solver and nothing
  calls in place.  The stealth oracles read their rows from one
  multi-group ``stay_range_rows`` pass per batch, so neither
  ``.stay_table(`` nor ``stay_range_table(`` is called.
* The closed loop: a per-slot ``controller.decide()`` may appear in
  ``attack/realtime.py`` only inside the ``execute_attack_reference``
  oracle, because the production path runs the deceived loop through
  ``simulate``'s kernel, and in ``hvac/simulation.py`` only inside the
  ``simulate_reference`` oracle and ``simulate``'s one-off probe of the
  ASHRAE baseline's fixed decision, because the kernels inline the
  control laws.
* The attacker's per-slot capability predicates (``can_attack_slot`` /
  ``can_spoof_zone``) in ``attack/biota.py``, ``attack/realtime.py`` and
  ``attack/schedule.py``: the BIoTA attack, the visit-feasibility
  filter and the batch schedule planner read ``slot_mask`` /
  ``zone_mask`` arrays, and only their reference oracles (for the
  schedule: the per-visit segment planner and the reference driver)
  test slot by slot.
* The ADM fit: in ``adm/cluster_model.py`` the per-group
  ``visits_to_points(``, ``kmeans(`` and ``quickhull(`` calls belong
  only in the ``_fit_reference`` oracle, because ``fit`` runs one visit
  pass, ``kmeans_groups`` and one ``cluster_hulls`` pass over all groups.
* Detection: the visit classifiers (``ClusterADM.flag_visits`` in
  ``adm/cluster_model.py``, ``attack/stealth.py`` and
  ``runner/common.py``) take their verdicts from the batched containment
  kernel, so none calls the scalar ``.is_benign_visit(``.
* ``attack/greedy.py`` shares the day-invariant reward tables instead of
  calling ``_day_rewards(``, and ``runner/experiments/fleet_attack.py``
  schedules through the batched front door, never per-day
  ``shatter_schedule(``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.base import FileContext, Finding, Rule, register
from repro.devtools.lint.rules.common import (
    call_name,
    iter_calls_with_enclosing,
    iter_name_references,
)

# Scalar-tier geometry: oracle-only, banned from the schedule drivers.
_SCALAR_GEOMETRY = ("point_in_hull", "stay_range", "union_stay_ranges")

# Files that must stay off the span-DP internals entirely (any mention —
# call, import, attribute — is a violation, matching the old grep).
_BATCH_PRIVATE = (
    "attack/greedy.py",
    "attack/biota.py",
    "core/shatter.py",
)
_BATCH_INTERNAL_PREFIXES = ("_optimize_span", "_shatter_schedule_reference")

# Per-slot, per-span and per-group scalar calls confined per file: (the
# called names, methods or plain functions; the functions that may call
# them, where an empty set bans the call from the file; why the rest of
# the file must not).
_Confinement = tuple[tuple[str, ...], set[str], str]
_CAPABILITY_PREDICATES = ("can_attack_slot", "can_spoof_zone")
_VISIT_CLASSIFIER: _Confinement = (
    ("is_benign_visit",),
    set(),
    "visit verdicts come from the batched containment kernel "
    "(ClusterADM.flag_visits / benign_mask)",
)
_CONFINED_CALLS: dict[str, tuple[_Confinement, ...]] = {
    "attack/schedule.py": (
        (
            ("_optimize_spans_batch",),
            {"_solve_task_wave"},
            "every production span is solved by the batch wave solver; "
            "route new drivers through shatter_schedule/shatter_schedule_batch",
        ),
        (
            ("_optimize_span",),
            {"_optimize_span_with_retry"},
            "the scalar span DP is the reference driver's oracle",
        ),
        (
            ("_optimize_span_with_retry",),
            set(),
            "the scalar span oracle is only bound as the reference "
            "driver's span solver",
        ),
        (
            ("stay_table", "stay_range_table"),
            set(),
            "stealth oracles read their rows from the batch's one "
            "stay_range_rows pass, not from one (occupant, zone) stay table",
        ),
        (
            _CAPABILITY_PREDICATES,
            {"_accessible_segments_reference", "_shatter_schedule_reference"},
            "the batch schedule planner reads the capability's slot_mask()/"
            "zone_mask() arrays",
        ),
    ),
    "attack/greedy.py": (
        (
            ("_day_rewards",),
            set(),
            "greedy shares the day-invariant reward tables "
            "(occupant_reward_table)",
        ),
    ),
    "attack/biota.py": (
        (
            _CAPABILITY_PREDICATES,
            {"biota_greedy_attack_reference"},
            "the BIoTA attack reads the capability's slot_mask()/"
            "zone_mask() arrays",
        ),
    ),
    "attack/realtime.py": (
        (
            ("decide",),
            {"execute_attack_reference"},
            "attack execution must run the deceived loop through simulate()",
        ),
        (
            _CAPABILITY_PREDICATES,
            {"_apply_visit_feasibility_reference"},
            "visit feasibility reads the capability's slot_mask()/"
            "zone_mask() arrays",
        ),
    ),
    "attack/stealth.py": (_VISIT_CLASSIFIER,),
    "runner/common.py": (_VISIT_CLASSIFIER,),
    "runner/experiments/fleet_attack.py": (
        (
            ("shatter_schedule",),
            set(),
            "fleet_attack schedules through the batched front door "
            "(shatter_attack_batch)",
        ),
    ),
    "adm/cluster_model.py": (
        (
            ("visits_to_points", "kmeans", "quickhull"),
            {"_fit_reference"},
            "the ADM fit runs one visit pass, kmeans_groups and one "
            "cluster_hulls pass over all (occupant, zone) groups",
        ),
        _VISIT_CLASSIFIER,
    ),
    "hvac/simulation.py": (
        (
            ("decide",),
            {"simulate_reference", "simulate"},
            "the simulation kernels inline the Eq. 1/2 control laws; only "
            "simulate()'s one-off ASHRAE probe may ask the controller",
        ),
    ),
}


@register
class HotPathScalarCalls(Rule):
    name = "hot-path-scalar-calls"
    description = (
        "per-element geometry/DP calls must not be reachable from the "
        "batched schedule drivers; span-DP internals stay private to "
        "attack/schedule.py"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.match("attack/schedule.py", "attack/greedy.py"):
            yield from self._check_scalar_geometry(ctx)
        if ctx.match(*_BATCH_PRIVATE) or (
            ctx.in_package("experiments") and ctx.in_package("runner")
        ):
            yield from self._check_batch_private(ctx)
        for path, confinements in _CONFINED_CALLS.items():
            if ctx.match(path):
                for methods, allowed, reason in confinements:
                    yield from self._check_confined(ctx, methods, allowed, reason)

    def _check_scalar_geometry(self, ctx: FileContext) -> Iterator[Finding]:
        for node, name in iter_name_references(ctx.tree):
            if name in _SCALAR_GEOMETRY:
                yield self.finding(
                    ctx,
                    node,
                    f"scalar geometry {name!r} reintroduced into a batched "
                    "hot path; use the batched kernels "
                    "(points_in_hulls, stay_range_rows)",
                )

    def _check_batch_private(self, ctx: FileContext) -> Iterator[Finding]:
        for node, name in iter_name_references(ctx.tree):
            if name.startswith(_BATCH_INTERNAL_PREFIXES):
                yield self.finding(
                    ctx,
                    node,
                    f"{name!r} is private to attack/schedule.py; drivers "
                    "must go through shatter_schedule/shatter_schedule_batch",
                )

    def _check_confined(
        self,
        ctx: FileContext,
        methods: tuple[str, ...],
        allowed: set[str],
        reason: str,
    ) -> Iterator[Finding]:
        where = (
            f"belongs only in {', '.join(sorted(allowed))}"
            if allowed
            else "belongs in no function of this file"
        )
        for call, enclosing in iter_calls_with_enclosing(ctx.tree):
            name = call_name(call)
            if name in methods and enclosing not in allowed:
                dot = "." if isinstance(call.func, ast.Attribute) else ""
                yield self.finding(
                    ctx,
                    call,
                    f"{reason}; {dot}{name}() {where} (found one in {enclosing})",
                )
