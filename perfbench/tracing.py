"""Span tracing of lissakit from outside the package.

``instrumented(tracer)`` swaps selected lissakit functions and methods for
wrappers that record a span (layer name, start, end, parent span) and bump
work counters, then restores the originals.  A function is replaced under
every name a lissakit module binds it to -- including ``from .models import
_forward`` style imports and the CLI's command table -- so calls through any
binding are seen.  Nothing is patched outside an ``instrumented`` block, so
untraced runs execute the program's own functions.

The program is single-threaded (the benchmark passes ``--threads 1``), so
spans nest strictly and no work ever waits on another thread: layers have
busy time but no waiting time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

WRAPPER_MARK = "__perfbench_wrapper__"

# Commands the workloads run; each gets a cli.cmd.<name>.wall_s metric.
CLI_COMMANDS = ("stats", "pbrf-compare", "counterexample", "similarity", "lissa")


class Tracer:
    """In-memory spans plus named work counters for one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def enter(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: ``calls`` and ``total_s`` of its outermost spans, and
        ``self_s``, the summed span durations minus their child spans."""
        child_s = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        totals: dict[str, dict] = {}
        for index, (layer, start, end, parent) in enumerate(self.spans):
            entry = totals.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["self_s"] += (end - start) - child_s[index]
            if parent < 0 or self.spans[parent][0] != layer:
                entry["calls"] += 1
                entry["total_s"] += end - start
        return totals


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _matvec_layer(args, kwargs):
    return "gnh.matvec_full" if args[0].batch_size is None else "gnh.matvec_batch"


def _matvec_counts(args, kwargs, result):
    op = args[0]
    examples = len(op.dataset) if op.batch_size is None else op.batch_size
    return {"gnh.hvps": 1, "gnh.examples": examples}


def _rhs_count(args, kwargs, result):
    g = _arg(args, kwargs, 2, "g")
    g = getattr(g, "values", g)
    return {"lissa.exact_ihvp.rhs": 1 if np.ndim(g) == 1 else np.shape(g)[1]}


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``target`` is ``module:qualname``; ``layer`` names
    the span (or picks it from the call's arguments; None records no span);
    ``count`` maps (args, kwargs, result) to counter increments."""

    target: str
    layer: str | Callable | None
    count: Callable | None = None


PROBES = (
    Probe("lissakit.models:_forward", "models.forward",
          lambda a, k, r: {"models.forward.rows": len(_arg(a, k, 2, "X"))}),
    Probe("lissakit.models:_jvp_batch", "models.jvp"),
    Probe("lissakit.models:_backprop", "models.backprop"),
    Probe("lissakit.models:_act_deriv", "models.act_deriv"),
    Probe("lissakit.gnh:GnhOperator.matvec", _matvec_layer, _matvec_counts),
    Probe("lissakit.gnh:_softmax_hessian_apply", "gnh.softmax_hessian_apply"),
    Probe("lissakit.gnh:sample_batch", "gnh.sample_batch"),
    Probe("lissakit.gnh:gnh_matrix_exact", "gnh.matrix_exact"),
    Probe("lissakit.core:SeededRng.raw_uint64", "core.rng",
          lambda a, k, r: {"core.rng.words": len(r)}),
    Probe("lissakit.core:SeededRng.uniform", "core.rng"),
    Probe("lissakit.core:SeededRng.normal", "core.rng"),
    Probe("lissakit.core:SeededRng.integers", "core.rng"),
    Probe("lissakit.core:SeededRng.rademacher", "core.rng"),
    Probe("lissakit.core:sym_eig", "core.sym_eig"),
    Probe("lissakit.core:check_symmetric", "core.check_symmetric"),
    Probe("lissakit.lissa:lissa_solve", "lissa.solve",
          lambda a, k, r: {"lissa.solve.steps": _arg(a, k, 2, "cfg").t_steps}),
    Probe("lissakit.lissa:RotatedRankOneSampler.matvec", "lissa.sampler_matvec",
          lambda a, k, r: {"lissa.sampler_hvps": 1}),
    Probe("lissakit.lissa:exact_ihvp", "lissa.exact_ihvp", _rhs_count),
    Probe("lissakit.pbrf:pbrf_finetune", "pbrf.finetune"),
    Probe("lissakit.influence:similarity_matrix", "influence.similarity_matrix"),
    Probe("lissakit.influence:eigen_reweight", "influence.eigen_reweight"),
    Probe("lissakit.spectral:estimate_trace", "spectral.estimate_trace"),
    Probe("lissakit.spectral:estimate_frobenius", "spectral.estimate_frobenius"),
    Probe("lissakit.spectral:sketch_operator", "spectral.sketch",
          lambda a, k, r: {"spectral.sketch_columns": r.shape[0]}),
    Probe("lissakit.spectral:_probe_vector", None, lambda a, k, r: {"spectral.probe_vectors": 1}),
    Probe("lissakit.cli:RunContext.emit_text", "cli.emit",
          lambda a, k, r: {"cli.emit.bytes": len(_arg(a, k, 2, "text").encode())}),
    Probe("lissakit.cli:RunContext.emit_csv", "cli.emit"),
    Probe("lissakit.cli:RunContext.write_manifest", "cli.emit"),
    Probe("lissakit.config:load_config", "config.load"),
) + tuple(
    Probe(f"lissakit.cli:cmd_{name.replace('-', '_')}", f"cli.cmd.{name}") for name in CLI_COMMANDS
)


def _wrap(tracer: Tracer, probe: Probe, fn):
    layer, count = probe.layer, probe.count

    def wrapper(*args, **kwargs):
        if layer is None:
            result = fn(*args, **kwargs)
        else:
            index = tracer.enter(layer(args, kwargs) if callable(layer) else layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(index)
        if count is not None:
            tracer.counts.update(count(args, kwargs, result))
        return result

    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    setattr(wrapper, WRAPPER_MARK, True)
    return wrapper


def lissakit_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "lissakit" or name.startswith("lissakit.")]


@contextmanager
def instrumented(tracer: Tracer):
    """Patch every binding of each probed callable for the block's duration."""
    undo: list[tuple[Callable, object, str, object]] = []
    try:
        for probe in PROBES:
            module_name, qualname = probe.target.split(":")
            module = importlib.import_module(module_name)
            if "." in qualname:  # method: every caller goes through the class
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, _wrap(tracer, probe, original))
                undo.append((setattr, cls, attr, original))
                continue
            original = getattr(module, qualname)
            wrapper = _wrap(tracer, probe, original)
            for mod in lissakit_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((setattr, mod, key, original))
                    elif isinstance(value, dict):
                        for dict_key, item in list(value.items()):
                            if item is original:
                                value[dict_key] = wrapper
                                undo.append((dict.__setitem__, value, dict_key, original))
        yield tracer
    finally:
        for setter, container, key, original in reversed(undo):
            setter(container, key, original)


def wrapped_bindings() -> list[str]:
    """Names of lissakit bindings that currently hold a tracing wrapper."""
    found = []
    for mod in lissakit_modules():
        for key, value in vars(mod).items():
            holders = [(key, value)]
            if isinstance(value, dict):
                holders = [(f"{key}[{k!r}]", v) for k, v in value.items()]
            elif isinstance(value, type):
                holders += [(f"{key}.{k}", v) for k, v in vars(value).items()]
            found += [f"{mod.__name__}.{name}" for name, v in holders if getattr(v, WRAPPER_MARK, False)]
    return found


# Per-layer metrics: (name, unit, the end-to-end metric and workload it should move).
PER_LAYER = (
    ("models.forward.calls", "count", "wall_s on spectral-fullbatch; no change on solve-minibatch"),
    ("models.forward.self_s", "s", "wall_s on spectral-fullbatch; no change on solve-minibatch"),
    ("models.forward.rows", "count", "wall_s on spectral-fullbatch; no change on solve-minibatch"),
    ("models.jvp.calls", "count", "wall_s on spectral-fullbatch; no change on solve-minibatch"),
    ("models.jvp.self_s", "s", "wall_s on spectral-fullbatch; no change on solve-minibatch"),
    ("models.backprop.calls", "count", "wall_s on spectral-fullbatch; no change on solve-minibatch"),
    ("models.backprop.self_s", "s", "wall_s on spectral-fullbatch; no change on solve-minibatch"),
    ("models.act_deriv.calls", "count", "wall_s on spectral-fullbatch; no change on solve-minibatch"),
    ("models.act_deriv.self_s", "s", "wall_s on spectral-fullbatch; no change on solve-minibatch"),
    ("models.act_deriv_per_hvp", "calls/hvp", "wall_s on spectral-fullbatch (base: GNH HVPs)"),
    ("gnh.matvec_full.calls", "count", "wall_s, peak_rss_mb on spectral-fullbatch"),
    ("gnh.matvec_full.self_s", "s", "wall_s, peak_rss_mb on spectral-fullbatch"),
    ("gnh.examples_per_hvp", "examples/hvp", "wall_s, peak_rss_mb on spectral-fullbatch"),
    ("gnh.softmax_hessian_apply.self_s", "s", "wall_s, peak_rss_mb on spectral-fullbatch"),
    ("gnh.matvec_batch.calls", "count", "wall_s on solve-minibatch"),
    ("gnh.matvec_batch.self_s", "s", "wall_s on solve-minibatch"),
    ("gnh.sample_batch.calls", "count", "wall_s on solve-minibatch"),
    ("gnh.sample_batch.self_s", "s", "wall_s on solve-minibatch"),
    ("core.rng.calls", "count", "wall_s on solve-minibatch"),
    ("core.rng.words", "count", "wall_s on solve-minibatch"),
    ("core.rng.self_s", "s", "wall_s on solve-minibatch"),
    ("lissa.solve.calls", "count", "wall_s on solve-minibatch"),
    ("lissa.solve.steps", "count", "wall_s on solve-minibatch"),
    ("lissa.solve.self_s", "s", "wall_s on solve-minibatch"),
    ("lissa.sampler_matvec.calls", "count", "wall_s on solve-minibatch"),
    ("lissa.sampler_matvec.self_s", "s", "wall_s on solve-minibatch"),
    ("pbrf.finetune.calls", "count", "wall_s on solve-minibatch"),
    ("pbrf.finetune.self_s", "s", "wall_s on solve-minibatch"),
    ("gnh.matrix_exact.calls", "count", "wall_s, peak_rss_mb on dense-oracle"),
    ("gnh.matrix_exact.self_s", "s", "wall_s, peak_rss_mb on dense-oracle"),
    ("lissa.exact_ihvp.calls", "count", "wall_s, peak_rss_mb on dense-oracle"),
    ("lissa.exact_ihvp.rhs", "count", "wall_s, peak_rss_mb on dense-oracle"),
    ("lissa.exact_ihvp.self_s", "s", "wall_s, peak_rss_mb on dense-oracle"),
    ("core.sym_eig.calls", "count", "wall_s, peak_rss_mb on dense-oracle"),
    ("core.sym_eig.self_s", "s", "wall_s, peak_rss_mb on dense-oracle"),
    ("core.check_symmetric.calls", "count", "wall_s, peak_rss_mb on dense-oracle"),
    ("core.check_symmetric.self_s", "s", "wall_s, peak_rss_mb on dense-oracle"),
    ("influence.similarity_matrix.self_s", "s", "wall_s, peak_rss_mb on dense-oracle"),
    ("influence.eigen_reweight.self_s", "s", "wall_s, peak_rss_mb on dense-oracle"),
    ("spectral.estimate_trace.self_s", "s", "wall_s on spectral-fullbatch"),
    ("spectral.estimate_frobenius.self_s", "s", "wall_s on spectral-fullbatch"),
    ("spectral.sketch.self_s", "s", "wall_s on spectral-fullbatch"),
    ("spectral.probe_vectors_per_column", "vectors/column", "wall_s on spectral-fullbatch (waste ratio; 1.0 is ideal)"),
    *((f"cli.cmd.{name}.wall_s", "s", "wall_s on the workload that runs it") for name in CLI_COMMANDS),
    ("cli.emit.self_s", "s", "wall_s on all workloads"),
    ("cli.emit.bytes", "count", "wall_s on all workloads"),
    ("config.load.self_s", "s", "wall_s on all workloads"),
    ("gnh.hvps", "count", "none: the paper's cost unit, reported as a count"),
    ("lissa.sampler_hvps", "count", "none: the paper's cost unit, reported as a count"),
    ("trace.overhead_s", "s", "none: traced minus untraced wall_s of one pass"),
)

# Ratio metrics: numerator and denominator, each a counter or <layer>.<field>.
RATIOS = {
    "models.act_deriv_per_hvp": ("models.act_deriv.calls", "gnh.hvps"),
    "gnh.examples_per_hvp": ("gnh.examples", "gnh.hvps"),
    "spectral.probe_vectors_per_column": ("spectral.probe_vectors", "spectral.sketch_columns"),
}


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric of one traced pass except trace.overhead_s.

    A layer the pass never entered reads 0, as does a ratio with a zero base.
    """
    totals = tracer.layer_totals()

    def lookup(name: str):
        if name in tracer.counts:
            return tracer.counts[name]
        layer, _, field = name.rpartition(".")
        if field == "wall_s":
            field = "total_s"
        if field in ("calls", "self_s", "total_s"):
            return totals.get(layer, {}).get(field, 0)
        return 0

    values = {}
    for name, _, _ in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        if name in RATIOS:
            num, den = (lookup(part) for part in RATIOS[name])
            values[name] = num / den if den else 0.0
        else:
            values[name] = lookup(name)
    return values
