"""Per-layer spans recorded from outside the fedridge package.

`Tracer` replaces the module-level bindings of each traced function with a
timing wrapper, in every loaded fedridge module that holds the function
under any name (so `from .kernels import cholesky_spd` in another module is
covered too), and puts the originals back on exit.  Nothing in the package
itself changes.

Each wrapper opens a span: it records the call count, the total time and
the self time, which is the span's duration minus the time covered by the
spans it caused.  Summed over all spans, self time therefore equals the
time covered by the top-level spans, and the traced replay's wall time
minus that is the unspanned remainder.

A traced name that no longer exists in the package is recorded as absent
instead of failing, so the benchmark survives refactors that delete a
function; its metrics then read zero.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

# Traced functions as (module, attribute), bottom-up through the layers.
TRACED = (
    ("kernels", "cholesky_spd"),
    ("kernels", "solve_spd"),
    ("kernels", "spd_inverse"),
    ("kernels", "triangular_solve_lower"),
    ("kernels", "thin_qr_rfactor"),
    ("kernels", "symmetric_eig"),
    ("kernels", "spectral_norm"),
    ("stats", "stats_from_batch"),
    ("stats", "ledger_apply"),
    ("stats", "solve_head"),
    ("inverse", "init_from_ledger"),
    ("inverse", "smw_add"),
    ("inverse", "smw_delete"),
    ("inverse", "feasibility_check"),
    ("inverse", "capacitance_condition"),
    ("inverse", "audit_drift"),
    ("client", "ClientStore.make_round_message"),
    ("coordinator", "aggregate"),
    ("coordinator", "run_round_a"),
    ("coordinator", "run_round_b"),
    ("coordinator", "run_round_approx"),
    ("posterior", "posterior_from_ledger"),
    ("posterior", "kl_matrix_normal"),
    ("simulate", "oracle_retrain"),
    ("simulate", "run_scenario"),
    ("wire", "encode_message"),
    ("wire", "decode_message"),
)

# Calls of these spans are also counted per calling module, e.g.
# `stats.stats_from_batch.from_client`.
SPLIT_BY_CALLER = {"stats.stats_from_batch": ("client",)}

# Spans whose individual durations feed the per-round derived metrics.
EVENT_SPANS = frozenset(
    {
        "client.make_round_message",
        "coordinator.aggregate",
        "coordinator.run_round_a",
        "coordinator.run_round_b",
        "coordinator.run_round_approx",
        "posterior.posterior_from_ledger",
        "posterior.kl_matrix_normal",
        "simulate.oracle_retrain",
    }
)


def _cols(b) -> int:
    shape = np.shape(b)
    return shape[1] if len(shape) == 2 else 1


# Textbook flop counts computed from the positional arguments' shapes,
# inclusive of any traced kernel the function calls (spd_inverse is one
# Cholesky plus a solve against the identity).
FLOPS = {
    "kernels.cholesky_spd": lambda a, *_: np.shape(a)[0] ** 3 / 3,
    "kernels.solve_spd": lambda factor, b, *_: 2 * np.shape(factor)[0] ** 2 * _cols(b),
    "kernels.spd_inverse": lambda a, *_: np.shape(a)[0] ** 3 * 7 / 3,
    "kernels.triangular_solve_lower": lambda L, b, *_: np.shape(L)[0] ** 2 * _cols(b),
}


def _flop(name: str, args) -> float:
    count = FLOPS.get(name)
    try:
        return float(count(*args)) if count else 0.0
    except (TypeError, IndexError):  # called with keywords: not counted
        return 0.0


FRAME_CHECK_SPAN = "perfbench.frame_check"
PACKAGE = "fedridge"


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "flop")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.flop = 0.0


def _add(table: dict, name: str, total: float, self_time: float, flop: float) -> None:
    rec = table.get(name)
    if rec is None:
        rec = table[name] = SpanStats()
    rec.calls += 1
    rec.total_s += total
    rec.self_s += self_time
    rec.flop += flop


class Tracer:
    """Context manager that installs timing wrappers for one traced replay.

    `after` maps a span name to a hook called with the same arguments once
    the wrapped call has returned; the hook runs in a span of its own
    (FRAME_CHECK_SPAN) so its cost stays out of the program's spans.
    """

    def __init__(self, after: dict | None = None):
        self.after = after or {}
        self.stats: dict[str, SpanStats] = {}
        self.by_caller: dict[str, SpanStats] = {}
        self.events: list[tuple[str, float]] = []
        self.absent: list[str] = []
        self.top_level_s = 0.0
        self._stack: list[list] = []  # [child seconds, span name] per open span
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, args, kwargs):
        frame = [0.0, name]
        stack = self._stack
        caller = stack[-1][1] if stack else None
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            else:
                self.top_level_s += duration
            self_time = duration - frame[0]
            _add(self.stats, name, duration, self_time, _flop(name, args))
            caller_module = caller.split(".", 1)[0] if caller else None
            if caller_module in SPLIT_BY_CALLER.get(name, ()):
                _add(self.by_caller, f"{name}.from_{caller_module}", duration, self_time, 0.0)
            if name in EVENT_SPANS:
                self.events.append((name, duration))

    def _wrap(self, name: str, fn):
        hook = self.after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, args, kwargs)
            if hook is not None:
                self.span(FRAME_CHECK_SPAN, hook, args, kwargs)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module, attr in TRACED:
            name = metric_name(module, attr)
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            if path:  # a method: the class is shared by every importer
                self._patch(owner, leaf, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, wrapper)
        return self

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)
        self._stack.clear()
