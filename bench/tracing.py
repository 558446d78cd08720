"""Span tracing of sqpc's public entry points, installed from outside the package.

``Tracer.install()`` replaces each traced callable with a wrapper that
records one span per call: name, parent span, start and end in ns, and
the qubits of the state a kernel call returns.  Spans stay in memory; ``layer_metrics`` reduces them to the
per-layer metrics and ``write`` dumps them once the run ends.
``uninstall()`` puts every original back.

Patches go where the caller resolves the name.  ``sqpc.harness`` does
``from .jiang import run_session``, so the jiang driver is traced as
``sqpc.harness.run_session``, not ``sqpc.jiang.run_session``.  Sessions
reach the kernel only through ``kernel.Register`` methods; the
``kernel-born`` workload calls the module functions.  Both are wrapped,
and a kernel span opened inside another kernel span (``Register.cnot``
calling ``apply_cnot``, ``measure_x`` calling ``apply_hadamard``) is not
recorded, so each call into the kernel API counts once.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from collections import defaultdict

from sqpc import attacks, harness, kernel

KERNEL_OPS = ("measure_z", "measure_x", "measure_bell", "cnot", "hadamard", "adjoin")
KERNEL_WIDTHS = (2, 3, 4, 8)

# Module function -> kernel op name; Register methods already use the op names.
_KERNEL_FUNCTIONS = {
    "tensor": "adjoin",
    "apply_cnot": "cnot",
    "apply_hadamard": "hadamard",
    "measure_z": "measure_z",
    "measure_x": "measure_x",
    "measure_bell": "measure_bell",
}
_TAP_HOOKS = ("on_forward", "on_return", "finalize")
_HARNESS_FUNCTIONS = ("run_trial", "run_experiment", "estimate_detection_curve", "emit_report")

# Per-layer metric names and units, in report order.
PER_LAYER = (
    [(f"kernel.{op}.{field}", unit) for op in KERNEL_OPS for field, unit in (("calls", "count"), ("self_s", "s"))]
    + [("kernel.max_qubits", "qubits"), ("kernel.amps_touched", "amps_computed")]
    + [(f"kernel.{op}.us_per_call.q{n}", "us") for op in KERNEL_OPS for n in KERNEL_WIDTHS]
    + [
        ("jiang.run_session.calls", "count"),
        ("jiang.run_session.self_s", "s"),
        ("jiang.session_ms_p50", "ms"),
        ("jiang.session_ms_p99", "ms"),
        ("improved.run_improved_session.calls", "count"),
        ("improved.run_improved_session.self_s", "s"),
        ("improved.session_ms_p50", "ms"),
        ("improved.session_ms_p99", "ms"),
    ]
    + [(f"attacks.{hook}.{field}", unit) for hook in _TAP_HOOKS for field, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("harness.run_trial.calls", "count"),
        ("harness.run_trial.self_s", "s"),
        ("harness.trial_ms_p50", "ms"),
        ("harness.trial_ms_p99", "ms"),
        ("harness.aggregate.self_s", "s"),
        ("harness.emit_report.self_s", "s"),
        ("cli.import_s", "s"),
        ("trace.overhead", "ratio"),
    ]
)


def _state_qubits(state) -> int:
    return state.shape[0].bit_length() - 1


def _function_qubits(args, result) -> int:
    """Qubits of the state a kernel module function returns."""
    return _state_qubits(result[1] if isinstance(result, tuple) else result)


def _register_qubits(args, result) -> int:
    """Qubits of the register a ``Register`` method leaves behind."""
    return _state_qubits(args[0].amps)


class Tracer:
    """Spans in parallel arrays, indexed by span number in start order."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: array = array("h")
        self.parents: array = array("q")
        self.starts: array = array("q")
        self.ends: array = array("q")
        self.qubits: array = array("b")
        self._stack: list[int] = []
        self._in_kernel = False
        self._originals: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def _wrap(self, name, fn, qubits_of=None):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        name_ids, parents, starts, ends, qubits = self.name_ids, self.parents, self.starts, self.ends, self.qubits
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if qubits_of is not None:
                if tracer._in_kernel:
                    return fn(*args, **kwargs)
                tracer._in_kernel = True
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            qubits.append(0)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if qubits_of is not None:
                    qubits[index] = qubits_of(args, result)
                return result
            finally:
                ends[index] = clock()
                stack.pop()
                if qubits_of is not None:
                    tracer._in_kernel = False

        return traced

    def _patch(self, owner, attr, name, qubits_of=None):
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, qubits_of))

    def install(self) -> "Tracer":
        for attr, op in _KERNEL_FUNCTIONS.items():
            self._patch(kernel, attr, f"kernel.{op}", _function_qubits)
        for op in KERNEL_OPS:
            self._patch(kernel.Register, op, f"kernel.{op}", _register_qubits)
        self._patch(harness, "run_session", "jiang.run_session")
        self._patch(harness, "run_improved_session", "improved.run_improved_session")
        for cls in vars(attacks).values():
            if isinstance(cls, type) and issubclass(cls, attacks.ChannelTap):
                for hook in _TAP_HOOKS:
                    if hook in cls.__dict__:
                        self._patch(cls, hook, f"attacks.{hook}")
        for attr in _HARNESS_FUNCTIONS:
            self._patch(harness, attr, f"harness.{attr}")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Every ``PER_LAYER`` metric except ``cli.import_s`` and
        ``trace.overhead``, which the runner measures itself.  A layer the
        workload never reaches reads 0."""
        durations_ns = [end - start for start, end in zip(self.starts, self.ends)]
        child_ns = [0] * len(self)
        for parent, duration in zip(self.parents, durations_ns):
            if parent >= 0:
                child_ns[parent] += duration
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        width_calls: dict[tuple[str, int], int] = defaultdict(int)
        width_ns: dict[tuple[str, int], int] = defaultdict(int)
        durations: dict[str, list[int]] = defaultdict(list)
        max_qubits = 0
        amps_touched = 0
        for name_id, duration, child, qubits in zip(self.name_ids, durations_ns, child_ns, self.qubits):
            name = self.names[name_id]
            own = duration - child
            calls[name] += 1
            self_ns[name] += own
            durations[name].append(duration)
            if name.startswith("kernel."):
                width_calls[name, qubits] += 1
                width_ns[name, qubits] += own
                max_qubits = max(max_qubits, qubits)
                amps_touched += 1 << qubits

        out: dict[str, float] = {}
        for op in KERNEL_OPS:
            out[f"kernel.{op}.calls"] = calls[f"kernel.{op}"]
            out[f"kernel.{op}.self_s"] = self_ns[f"kernel.{op}"] / 1e9
        out["kernel.max_qubits"] = max_qubits
        out["kernel.amps_touched"] = amps_touched
        for op in KERNEL_OPS:
            for n in KERNEL_WIDTHS:
                count = width_calls[f"kernel.{op}", n]
                out[f"kernel.{op}.us_per_call.q{n}"] = width_ns[f"kernel.{op}", n] / 1e3 / count if count else 0.0
        for layer, span in (("jiang", "jiang.run_session"), ("improved", "improved.run_improved_session")):
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_ns[span] / 1e9
            out[f"{layer}.session_ms_p50"] = _percentile_ms(durations[span], 50)
            out[f"{layer}.session_ms_p99"] = _percentile_ms(durations[span], 99)
        for hook in _TAP_HOOKS:
            out[f"attacks.{hook}.calls"] = calls[f"attacks.{hook}"]
            out[f"attacks.{hook}.self_s"] = self_ns[f"attacks.{hook}"] / 1e9
        out["harness.run_trial.calls"] = calls["harness.run_trial"]
        out["harness.run_trial.self_s"] = self_ns["harness.run_trial"] / 1e9
        out["harness.trial_ms_p50"] = _percentile_ms(durations["harness.run_trial"], 50)
        out["harness.trial_ms_p99"] = _percentile_ms(durations["harness.run_trial"], 99)
        out["harness.aggregate.self_s"] = (
            self_ns["harness.run_experiment"] + self_ns["harness.estimate_detection_curve"]
        ) / 1e9
        out["harness.emit_report.self_s"] = self_ns["harness.emit_report"] / 1e9
        return out

    def write(self, path, machine: dict) -> None:
        """Dump every span as one CSV row, after a ``#`` line of machine facts."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {json.dumps(machine)}\nindex,parent,name,start_ns,end_ns,qubits\n")
            rows = zip(self.parents, self.name_ids, self.starts, self.ends, self.qubits)
            for index, (parent, name_id, start, end, qubits) in enumerate(rows):
                fh.write(f"{index},{parent},{self.names[name_id]},{start},{end},{qubits}\n")


def _percentile_ms(durations_ns: list[int], pct: int) -> float:
    """The pct-th percentile in ms; 0 without spans, the single value with one."""
    if len(durations_ns) < 2:
        return durations_ns[0] / 1e6 if durations_ns else 0.0
    return statistics.quantiles(durations_ns, n=100, method="inclusive")[pct - 1] / 1e6
