"""Spans and counters for the traced pass, recorded from outside the package.

The tracer wraps public functions and methods of ``ensmc`` in place:
class methods are patched on the class, and the ``from ... import``
aliases a module calls through (``ensmc.runner.smc``,
``ensmc.inference.draw_index``, ...) are patched in that module. Nothing
inside the package changes, and ``uninstall`` restores every original.

Each thread keeps its own span stack. The loopback ``ModelServer``
answers on handler threads whose stacks are empty; their spans attach to
the client span waiting for the reply, so they belong to the current op
and count as that span's children. A span's self time is its duration
minus the time its child spans cover (children of one span never
overlap: the op is a single closed-loop caller, and the server answers
one request at a time).

Totals are kept per span name for every op. Raw spans (op id, span id,
parent id, name, thread, start, end) are kept in memory for the first
``keep_ops`` ops only and written out when the pass ends.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter

# Span names. Time totals, self times and call counts are kept for each.
SAMPLER = "inference.sampler"
ESS = "inference.ess"
DRAW = "lmcore.draw_index"
PREFIX = "lmcore.prefix_log_prob"
COMBINE = "ensemble.combine_columns"
TOY = "toy.log_next"
BRIDGE = "bridge.log_next"
TOKEN_ROW = "bridge.token_row"
ORACLE = "oracle.enumerate"
CLIENT = "remote.client"
SERVER = "remote.server"
BUILD = "config.build_panel"
RUNNER = "runner.run_experiment"


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self, keep_ops: int = 2):
        self.keep_ops = keep_ops
        self.op_id = -1
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        #: Distinct contexts seen in the current op, per counter name.
        self._contexts: dict[str, set] = defaultdict(set)
        #: id(model) -> role, refreshed from each op's panel.
        self._roles: dict[int, tuple] = {}
        self._panels: list = []
        self._client_frame: list | None = None
        self._local = threading.local()
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; return its result."""
        stack = self._stack()
        parent = stack[-1] if stack else self._client_frame
        # frame: [child seconds, span id]
        frame = [0.0, next(self._ids)]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[0] += duration
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[0]
            self.counts[name] += 1
            if self.op_id < self.keep_ops:
                self.spans.append((
                    self.op_id, frame[1], parent[1] if parent else None, name,
                    threading.current_thread().name, start, end,
                ))

    def context(self, name: str, key) -> None:
        """Record a context, for the distinct-context count ``<name>.contexts``."""
        self._contexts[name].add(key)

    # -- ops ----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._roles.clear()
        self._panels.clear()

    def end_op(self) -> None:
        for name, keys in self._contexts.items():
            self.counts[name + ".contexts"] += len(keys)
            keys.clear()
        for panel in self._panels:
            for model in panel:
                self.counts["remote.defects"] += len(getattr(model, "defects", ()))
        self._panels.clear()

    def register_panel(self, panel) -> None:
        """Learn which expert index (or inner token model) each model instance is."""
        self._panels.append(panel)
        for k, model in enumerate(panel):
            self._roles[id(model)] = ("expert", k)
            inner = getattr(model, "token_model", None)
            if inner is not None:
                self._roles[id(inner)] = ("token",)

    # -- patching -----------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            # A layer that is silently not traced would read as bypassed.
            raise LookupError(f"trace target {owner.__name__}.{attr} is missing")
        wrapper = functools.wraps(original)(make(original))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, served=None) -> None:
        """Wrap the package's layer boundaries. ``served`` is the loopback model."""
        from ensmc import bridge, ensemble, inference, lmcore, remote, runner, toy

        tr = self

        def timed(name):
            return lambda fn: lambda *a, **k: tr.span(name, fn, *a, **k)

        def counted(name):
            def make(fn):
                def wrapper(*a, **k):
                    tr.counts[name] += 1
                    return fn(*a, **k)
                return wrapper
            return make

        def build_panel(fn):
            def wrapper(config):
                panel, spec = tr.span(BUILD, fn, config)
                tr.register_panel(panel)
                return panel, spec
            return wrapper

        def sampler(fn):
            def wrapper(*a, **k):
                out = tr.span(SAMPLER, fn, *a, **k)
                tr.counts["inference.particles"] += len(
                    out.particles if hasattr(out, "particles") else out
                )
                return out
            return wrapper

        def oracle(fn):
            def wrapper(*a, **k):
                table = tr.span(ORACLE, fn, *a, **k)
                tr.counts["oracle.nodes"] += table.nodes_visited
                tr.counts["oracle.strings"] += len(table.strings)
                return table
            return wrapper

        def combine_columns(fn):
            def wrapper(spec, log_matrix):
                tr.counts["ensemble.columns"] += len(log_matrix[0])
                return tr.span(COMBINE, fn, spec, log_matrix)
            return wrapper

        def shaping_row(fn):
            def wrapper(shaping, x):
                tr.counts["inference.shaping_row"] += 1
                tr.context("inference.shaping_row", (id(shaping), x))
                return fn(shaping, x)
            return wrapper

        def toy_row(fn):
            def wrapper(model, context):
                if model is served:
                    return tr.span(SERVER, fn, model, context)
                role = tr._roles.get(id(model))
                if role is None:
                    return tr.span(TOY, fn, model, context)
                if role[0] == "token":
                    tr.context("bridge.token_row", (id(model), context))
                    return tr.span(TOKEN_ROW, fn, model, context)
                name = f"toy.log_next.e{role[1]}"
                tr.counts[name] += 1
                tr.context(name, context)
                return tr.span(TOY, fn, model, context)
            return wrapper

        def client_row(fn):
            def call(model, context):
                served_before = tr.counts[SERVER]
                outer = tr._client_frame
                tr._client_frame = tr._stack()[-1]
                start = perf_counter()
                try:
                    return fn(model, context)
                finally:
                    tr._client_frame = outer
                    if tr.counts[SERVER] > served_before:
                        tr.counts["remote.misses"] += 1
                        frame = tr._stack()[-1]
                        tr.total_s["remote.miss"] += perf_counter() - start - frame[0]

            def wrapper(model, context):
                return tr.span(CLIENT, call, model, context)
            return wrapper

        aliases = [
            (runner, "build_panel", build_panel),
            (runner, "smc", sampler),
            (runner, "sis", sampler),
            (runner, "importance_sample", sampler),
            (runner, "local_sample", sampler),
            (runner, "enumerate_ensemble", oracle),
            (inference, "ess", timed(ESS)),
            (inference, "draw_index", timed(DRAW)),
            (lmcore, "draw_index", timed(DRAW)),
            (inference, "prefix_log_prob", timed(PREFIX)),
            (ensemble, "prefix_log_prob", timed(PREFIX)),
            (lmcore, "prefix_log_prob", timed(PREFIX)),
            (ensemble, "string_log_prob", counted("lmcore.string_log_prob")),
            (lmcore, "string_log_prob", counted("lmcore.string_log_prob")),
            (inference, "sample_with_log_prob", counted("lmcore.sample_with_log_prob")),
            (inference, "log_potential_columns", counted("ensemble.log_potential_columns")),
        ]
        methods = [
            (ensemble.EnsembleSpec, "combine_columns", combine_columns),
            (inference.PrefixPotentialShaping, "log_row", shaping_row),
            (inference.OptimalProposal, "log_row", counted("inference.proposal_row")),
            (inference.ExpertProposal, "log_row", counted("inference.proposal_row")),
            (toy.TableModel, "log_next", toy_row),
            (toy.NGramModel, "log_next", toy_row),
            (toy.PFSAModel, "log_next", toy_row),
            (bridge.TokenToByteModel, "log_next", timed(BRIDGE)),
            (bridge.TokenToByteModel, "prefix_log_prob", counted("bridge.prefix_log_prob")),
            (remote.RemoteModel, "log_next", client_row),
        ]
        for owner, attr, make in aliases + methods:
            self._patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the kept spans as JSON Lines, one object per span."""
        keys = ("op", "span", "parent", "name", "thread", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    # -- metrics ------------------------------------------------------

    def layer_metrics(self, ops: int, records: list[dict]) -> dict[str, float]:
        """Per-layer metrics: counts and seconds are means per op."""
        c, tot, own = self.counts, self.total_s, self.self_s
        per = 1.0 / max(ops, 1)

        def ratio(num, den):
            return num / den if den else 0.0

        toy_calls = sum(c[f"toy.log_next.e{k}"] for k in range(3))
        toy_contexts = sum(c[f"toy.log_next.e{k}.contexts"] for k in range(3))
        smc_like = [r for r in records if "ess_trace" in r]
        out = {
            "config.build_panel_s": tot[BUILD],
            "runner.self_s": own[RUNNER],
            "inference.sampler_calls": c[SAMPLER],
            "inference.sampler_s": tot[SAMPLER],
            "inference.self_s": own[SAMPLER],
            "inference.particles": c["inference.particles"],
            "inference.shaping_row_calls": c["inference.shaping_row"],
            "inference.shaping_row_contexts": c["inference.shaping_row.contexts"],
            "inference.proposal_row_calls": c["inference.proposal_row"],
            "inference.ess_calls": c[ESS],
            "inference.ess_s": tot[ESS],
            "inference.rounds": sum(len(r["ess_trace"]) for r in smc_like),
            "inference.resample_rounds": sum(len(r.get("resample_rounds", ())) for r in smc_like),
            "inference.truncated": sum(r.get("truncated", 0) for r in records),
            "lmcore.draw_index_calls": c[DRAW],
            "lmcore.draw_index_s": tot[DRAW],
            "lmcore.prefix_log_prob_calls": c[PREFIX],
            "lmcore.prefix_log_prob_s": tot[PREFIX],
            "lmcore.string_log_prob_calls": c["lmcore.string_log_prob"],
            "lmcore.sample_with_log_prob_calls": c["lmcore.sample_with_log_prob"],
            "ensemble.combine_columns_calls": c[COMBINE],
            "ensemble.combine_columns_s": tot[COMBINE],
            "ensemble.columns": c["ensemble.columns"],
            "ensemble.log_potential_columns_calls": c["ensemble.log_potential_columns"],
            "toy.log_next_calls.e0": c["toy.log_next.e0"],
            "toy.log_next_calls.e1": c["toy.log_next.e1"],
            "toy.log_next_calls.e2": c["toy.log_next.e2"],
            "toy.log_next_s": tot[TOY],
            "toy.log_next_contexts": toy_contexts,
            "bridge.log_next_calls": c[BRIDGE],
            "bridge.log_next_s": tot[BRIDGE],
            "bridge.self_s": own[BRIDGE],
            "bridge.prefix_log_prob_calls": c["bridge.prefix_log_prob"],
            "bridge.token_row_calls": c["bridge.token_row"],
            "bridge.token_row_contexts": c["bridge.token_row.contexts"],
            "oracle.enumerate_calls": c[ORACLE],
            "oracle.enumerate_s": tot[ORACLE],
            "oracle.self_s": own[ORACLE],
            "oracle.nodes": c["oracle.nodes"],
            "oracle.strings": c["oracle.strings"],
            "remote.client_calls": c[CLIENT],
            "remote.round_trips": c[SERVER],
            "remote.client_s": tot[CLIENT],
            "remote.server_s": tot[SERVER],
            "remote.wait_s": tot["remote.miss"],
            "remote.retries": c[SERVER] - c["remote.misses"],
            "remote.defects": c["remote.defects"],
        }
        out = {name: value * per for name, value in out.items()}
        out["toy.log_next_reuse"] = 1.0 - ratio(toy_contexts, toy_calls) if toy_calls else 0.0
        out["remote.client_hit_ratio"] = ratio(c[CLIENT] - c["remote.misses"], c[CLIENT])
        return out
