"""``hot-path-scalar-calls``: keep per-element work out of batched drivers.

The PR 3/PR 6 kernel tiers established a contract the old CI greps and
the test-embedded AST walker enforced piecemeal: the scalar geometry
tier (``point_in_hull`` / ``stay_range`` / ``union_stay_ranges``) is an
equivalence oracle, not a hot-path API, and the span-level DP internals
(``_optimize_span*``, ``_shatter_schedule_scalar``) are private to
``attack/schedule.py`` — drivers must enter through
``shatter_schedule`` / ``shatter_schedule_batch`` so fleets advance as
one array program instead of a per-day Python loop.  The schedule's
stealth oracles are built the same way: ``attack/schedule.py`` calls
neither ``.stay_table(`` nor ``stay_range_table(``, because a batch's
oracles read their rows from one multi-group ``stay_range_rows`` pass.

This rule is call-graph-aware where the greps could not be: inside
``attack/schedule.py`` the restricted internals may only be called from
their designated callers, not merely "somewhere in the file".  The one
production DP engine, ``_optimize_spans_batch``, is entered from the
batch wave solver and from the engine dispatcher ``_optimize_span`` (a
one-row batch, the per-visit fallback's path).  The closed loop follows
the same contract: a per-slot ``controller.decide()`` may appear in
``attack/realtime.py`` only inside the ``execute_attack_reference``
oracle, because the production path runs the deceived loop through
``simulate``'s kernel, and in ``hvac/simulation.py`` only inside the
``simulate_reference`` oracle and ``simulate``'s one-off probe of the
ASHRAE baseline's fixed decision, because the kernels inline the
control laws.  The attacker's per-slot capability predicates
(``can_attack_slot`` / ``can_spoof_zone``) are confined the same way in
``attack/biota.py``, ``attack/realtime.py`` and ``attack/schedule.py``:
the BIoTA attack, the visit-feasibility filter and the batch schedule
planner read ``slot_mask`` / ``zone_mask`` arrays, and only their
reference oracles (for the schedule: the per-visit segment planner and
the scalar engines' driver) test slot by slot.  The ADM fit follows
suit: in ``adm/cluster_model.py`` the per-group ``visits_to_points(``,
``kmeans(`` and ``quickhull(`` calls belong only in the
``_fit_reference`` oracle, because ``fit`` runs one visit pass,
``kmeans_groups`` and one ``cluster_hulls`` pass over all groups.
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

# Per-group stay tables: the schedule's oracles come from one
# multi-group stay_range_rows pass per batch, so attack/schedule.py
# builds neither kind.
_PER_GROUP_TABLES = ("stay_table", "stay_range_table")

# Who may call the span-DP internals inside attack/schedule.py.
_ALLOWED_CALLERS = {
    "_optimize_spans_batch": {"_optimize_span", "_solve_task_wave"},
    "_optimize_span": {"_optimize_span_with_retry"},
    "_optimize_span_with_retry": {"_schedule_segment", "_segment_fallback"},
}

# Files that must stay off the span-DP internals entirely (any mention —
# call, import, attribute — is a violation, matching the old grep).
_BATCH_PRIVATE = (
    "attack/greedy.py",
    "attack/biota.py",
    "core/shatter.py",
)
_BATCH_INTERNAL_PREFIXES = ("_optimize_span", "_shatter_schedule_scalar")

# Per-slot and per-group scalar calls confined per file: (the called
# names, methods or plain functions; the functions that may call them;
# why the rest of the file must not).
_Confinement = tuple[tuple[str, ...], set[str], str]
_CAPABILITY_PREDICATES = ("can_attack_slot", "can_spoof_zone")
_CONFINED_CALLS: dict[str, tuple[_Confinement, ...]] = {
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
    "attack/schedule.py": (
        (
            _CAPABILITY_PREDICATES,
            {"_accessible_segments_reference", "_shatter_schedule_scalar"},
            "the batch schedule planner reads the capability's slot_mask()/"
            "zone_mask() arrays",
        ),
    ),
    "adm/cluster_model.py": (
        (
            ("visits_to_points", "kmeans", "quickhull"),
            {"_fit_reference"},
            "the ADM fit runs one visit pass, kmeans_groups and one "
            "cluster_hulls pass over all (occupant, zone) groups",
        ),
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
        if ctx.match("attack/schedule.py"):
            yield from self._check_schedule(ctx)
            yield from self._check_per_group_tables(ctx)
        if ctx.match("attack/schedule.py", "attack/greedy.py"):
            yield from self._check_scalar_geometry(ctx)
        if ctx.match("attack/greedy.py"):
            yield from self._check_greedy(ctx)
        if ctx.match(*_BATCH_PRIVATE) or (
            ctx.in_package("experiments") and ctx.in_package("runner")
        ):
            yield from self._check_batch_private(ctx)
        if ctx.match("runner/experiments/fleet_attack.py"):
            yield from self._check_fleet_attack(ctx)
        if ctx.match("adm/cluster_model.py"):
            yield from self._check_flag_visits(ctx)
        for path, confinements in _CONFINED_CALLS.items():
            if ctx.match(path):
                for methods, allowed, reason in confinements:
                    yield from self._check_confined(ctx, methods, allowed, reason)

    def _check_schedule(self, ctx: FileContext) -> Iterator[Finding]:
        """Call-graph restrictions on the span-DP internals."""
        for call, enclosing in iter_calls_with_enclosing(ctx.tree):
            name = call_name(call)
            allowed = _ALLOWED_CALLERS.get(name)
            if allowed is not None and enclosing not in allowed:
                yield self.finding(
                    ctx,
                    call,
                    f"{name}() may only be called from "
                    f"{', '.join(sorted(allowed))} (found a call in "
                    f"{enclosing}); route new drivers through "
                    "shatter_schedule/shatter_schedule_batch",
                )

    def _check_per_group_tables(self, ctx: FileContext) -> Iterator[Finding]:
        for call, enclosing in iter_calls_with_enclosing(ctx.tree):
            name = call_name(call)
            if name in _PER_GROUP_TABLES:
                yield self.finding(
                    ctx,
                    call,
                    f"{name}() builds one (occupant, zone) stay table (found "
                    f"in {enclosing}); stealth oracles read their rows from "
                    "the batch's one stay_range_rows pass",
                )

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

    def _check_greedy(self, ctx: FileContext) -> Iterator[Finding]:
        for call, _ in iter_calls_with_enclosing(ctx.tree):
            if call_name(call) == "_day_rewards":
                yield self.finding(
                    ctx,
                    call,
                    "greedy must share the day-invariant reward tables "
                    "(occupant_reward_table), not recompute _day_rewards",
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

    def _check_fleet_attack(self, ctx: FileContext) -> Iterator[Finding]:
        for call, _ in iter_calls_with_enclosing(ctx.tree):
            if call_name(call) == "shatter_schedule":
                yield self.finding(
                    ctx,
                    call,
                    "fleet_attack must schedule through the batched front "
                    "door (shatter_attack_batch), not per-day "
                    "shatter_schedule()",
                )

    def _check_flag_visits(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name != "flag_visits":
                continue
            for call, _ in iter_calls_with_enclosing(node):
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "is_benign_visit"
                ):
                    yield self.finding(
                        ctx,
                        call,
                        "flag_visits must classify through the batched "
                        "containment kernel (benign_mask), not per-visit "
                        "is_benign_visit()",
                    )

    def _check_confined(
        self,
        ctx: FileContext,
        methods: tuple[str, ...],
        allowed: set[str],
        reason: str,
    ) -> Iterator[Finding]:
        for call, enclosing in iter_calls_with_enclosing(ctx.tree):
            name = call_name(call)
            if name in methods and enclosing not in allowed:
                dot = "." if isinstance(call.func, ast.Attribute) else ""
                yield self.finding(
                    ctx,
                    call,
                    f"{reason}; {dot}{name}() belongs only in "
                    f"{', '.join(sorted(allowed))} (found one in "
                    f"{enclosing})",
                )
