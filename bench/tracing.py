"""Spans around the package's public functions, recorded from outside.

The modules bind each other's functions with ``from .x import y``, so a
function is reachable under several names.  :meth:`Tracer.install`
replaces every binding of a traced function in every loaded
``matchcore`` module (the package namespace included) and
:meth:`Tracer.remove` puts each one back.

A span is (name, start, end, parent span, request id).  Spans stay in
memory until :meth:`Tracer.write`.  Self time is a span's duration minus
the durations of its direct children; calls are strictly nested in one
thread, so the children never overlap.
"""

from __future__ import annotations

import gzip
import sys
from time import perf_counter_ns

# (module, function) pairs to trace.  A function a later version drops
# is skipped at install time and reads zero.
TRACED = (
    ("simplex", "solve_lp"),
    ("simplex", "solve_over_optimal_face"),
    ("gamelp", "build_primal_lp"),
    ("gamelp", "build_dual_lp"),
    ("gamelp", "solve_dual"),
    ("matchings", "brute_force_optima"),
    ("matchings", "fractional_optimum"),
    ("matchings", "classification_table"),
    ("analysis", "worth"),
    ("analysis", "game_worth"),
    ("analysis", "check_concurrency"),
    ("analysis", "payment_report"),
    ("analysis", "degeneracy_report"),
    ("analysis", "antipodal_imputations"),
    ("analysis", "is_core_imputation"),
    ("games", "connected_coalitions"),
    ("games", "induce_subgame"),
    ("bmatching", "coalition_system"),
    ("bmatching", "in_dual_image"),
    ("bmatching", "core_membership_via_system"),
    ("reports", "worth_section"),
    ("reports", "concurrency_section"),
    ("reports", "dual_section"),
    ("reports", "imputation_section"),
    ("reports", "classify_section"),
    ("reports", "payments_section"),
    ("reports", "degeneracy_section"),
    ("reports", "antipodal_section"),
    ("reports", "system_section"),
    ("reports", "dual_imputation"),
    ("reports", "full_report"),
    ("gamefile", "parse_game"),
    ("cli", "main"),
)

SECTIONS = (
    "worth", "concurrency", "dual", "imputation", "classify",
    "payments", "degeneracy", "antipodal", "system",
)


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []  # [name id, start, end, parent, request]
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts = {
            "simplex.lp_cells": 0,
            "simplex.value_bits_max": 0,
            "matchings.optima_found": 0,
            "games.coalitions_returned": 0,
        }
        self.request = -1
        self.requests = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._saved: list[tuple[object, str, object]] = []

    # -- bindings -----------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "matchcore" or n.startswith("matchcore."))
        ]
        for mod_name, fn_name in TRACED:
            key = f"{mod_name}.{fn_name}"
            self.calls[key] = 0
            self.total_ns[key] = 0
            self.self_ns[key] = 0
            home = sys.modules.get(f"matchcore.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                print(f"trace: {key} not found; it reads zero", file=sys.stderr)
                continue
            wrapper = self._wrap(key, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, key: str, fn):
        name_id = len(self.names)
        self.names.append(key)
        spans, stack = self.spans, self._stack
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        observe = self._observers().get(key)

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[key] += 1
                total_ns[key] += dur
                self_ns[key] += dur - frame[1]
                spans[sid] = (name_id, start, end, parent, self.request)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counts made at the boundaries --------------------------------------

    def _observers(self):
        counts = self.counts

        def lp_in(args, result):
            lp = args[0]
            counts["simplex.lp_cells"] += len(lp.constraints) * len(lp.variables)
            for v in result.values.values():
                b = _bits(v)
                if b > counts["simplex.value_bits_max"]:
                    counts["simplex.value_bits_max"] = b

        def optima(args, result):
            counts["matchings.optima_found"] += len(result[1])

        def coalitions(args, result):
            counts["games.coalitions_returned"] += len(result)

        return {
            "simplex.solve_lp": lp_in,
            "matchings.brute_force_optima": optima,
            "games.connected_coalitions": coalitions,
        }

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures, name -> (value, unit)."""
        c, s, t = self.calls, self.self_ns, self.total_ns
        sec = 1e-9
        out: dict[str, tuple[float, str]] = {}

        def calls_of(key):
            out[f"{key}.calls"] = (c.get(key, 0), "count")

        def self_of(key):
            out[f"{key}.self_s"] = (s.get(key, 0) * sec, "s")

        for key in ("simplex.solve_lp", "simplex.solve_over_optimal_face"):
            calls_of(key)
        self_of("simplex.solve_lp")
        out["simplex.lp_cells"] = (self.counts["simplex.lp_cells"], "count")
        out["simplex.value_bits_max"] = (self.counts["simplex.value_bits_max"], "bits")

        calls_of("gamelp.build_primal_lp")
        calls_of("gamelp.build_dual_lp")
        out["gamelp.build_lp.self_s"] = (
            (s.get("gamelp.build_primal_lp", 0) + s.get("gamelp.build_dual_lp", 0)) * sec,
            "s",
        )
        calls_of("gamelp.solve_dual")

        calls_of("matchings.brute_force_optima")
        self_of("matchings.brute_force_optima")
        out["matchings.optima_found"] = (self.counts["matchings.optima_found"], "count")
        out["matchings.enum_per_report"] = (
            c.get("matchings.brute_force_optima", 0) / max(self.requests, 1),
            "ratio",
        )
        calls_of("matchings.fractional_optimum")
        self_of("matchings.fractional_optimum")
        calls_of("matchings.classification_table")

        for key in ("analysis.check_concurrency", "analysis.game_worth", "analysis.worth",
                    "analysis.payment_report"):
            calls_of(key)
        self_of("analysis.payment_report")
        self_of("analysis.antipodal_imputations")
        calls_of("analysis.is_core_imputation")
        self_of("analysis.is_core_imputation")

        calls_of("games.connected_coalitions")
        self_of("games.connected_coalitions")
        out["games.coalitions_returned"] = (self.counts["games.coalitions_returned"], "count")
        calls_of("games.induce_subgame")
        self_of("games.induce_subgame")

        for key in ("bmatching.coalition_system", "bmatching.in_dual_image"):
            calls_of(key)
            self_of(key)
        self_of("bmatching.core_membership_via_system")

        for name in SECTIONS:
            out[f"reports.{name}_section.s"] = (t.get(f"reports.{name}_section", 0) * sec, "s")
        out["reports.dual_imputation.s"] = (t.get("reports.dual_imputation", 0) * sec, "s")
        self_of("reports.full_report")
        self_of("gamefile.parse_game")
        self_of("cli.main")
        return out

    def write(self, path: str) -> None:
        """All spans as tab-separated lines: id, parent, request, name, start, end."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for sid, (name_id, start, end, parent, req) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{req}\t{self.names[name_id]}\t{start}\t{end}\n")
