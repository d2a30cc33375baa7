"""Span tracer that wraps the library's public calls from outside.

The tracer replaces each traced function at every module namespace that
binds it, records one span per call and restores the originals on
``uninstall``. Nothing in ``src/`` knows about it: an untraced run never
imports this module and executes the unmodified library.

Every span is kept in memory and written out by the caller at the end
of a pass. A span's self time is its duration minus the time its child spans
cover. Children run nested on the same thread, except the checks that
``bosefluct run`` hands to its worker thread: a span opened on an empty
worker stack is attributed to the innermost open span of the main thread.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYER_MODULES = ("model", "fluctuations", "asymptotics", "quasifree", "fock", "checks", "cli")

# Spans that make up workspace and operator assembly in the Fock layer.
ASSEMBLY_SPANS = frozenset({
    "fock.build_workspace", "fock.build_hamiltonian", "fock.dynamics_commutator",
    "fock.density_fluct_matrix", "fock.order_param_fluct_matrix",
    "fock.condensate_fluct_matrix",
})
ASSEMBLY_PREFIX = "fock.FockWorkspace."
EIG_SPANS = ("fock.eigsh", "fock.eigvalsh")
# Methods traced on the Fock layer's classes (workspace assembly, state set-up).
FOCK_METHODS = {
    "FockWorkspace": ("__init__", "annihilator", "creator", "number", "total_number",
                      "identity", "below_truncation_projector", "transfer_operator"),
    "FiniteState": ("coherent_vacuum", "coherent_thermal", "coherent_b_vacuum",
                    "expect", "seminorm"),
}
LEAK_MESSAGE = "truncation leakage"
# The span a pass runs under; its self time is orchestration outside the
# library, so it counts towards the ``cli`` layer with ``cli.main``.
ROOT = "cli"


class Tracer:
    """Wraps the library's public calls and aggregates spans by name."""

    def __init__(self):
        self.spans: list = []        # (span_id, parent_id, name, start, end)
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()   # tokens, integrand evaluations, warnings
        self.maxima: Counter = Counter()   # largest operator seen by expm_multiply
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._lock = threading.Lock()
        self._patches: list = []     # (owner, attribute, original)

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        frame = [name, next(self._ids), parent, 0.0, perf_counter()]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        name, span_id, parent, child_s, start = frame
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        parent_id = 0
        if parent is not None:
            parent_id = parent[1]
            if stack:
                parent[3] += duration
            else:  # parent lives on the main thread
                with self._lock:
                    parent[3] += duration
        self.spans.append((span_id, parent_id, name, start, end))

    def span(self, name, fn, on_call=None):
        """Return ``fn`` wrapped in a span; ``name`` may be a function of the call's arguments."""
        tracer = self
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            frame = tracer.enter(name if fixed else name(args, kwargs))
            try:
                if on_call is not None:
                    args, kwargs = on_call(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- installing and restoring -----------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _rebind(self, modules, original, replacement) -> None:
        """Replace ``original`` in every module namespace that binds it."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self, package) -> None:
        """Wrap the public calls of every layer module of ``package``."""
        import numpy.linalg
        import scipy.integrate

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._stack()
        layers = {name: importlib.import_module(f"{package.__name__}.{name}")
                  for name in LAYER_MODULES}
        modules = [package] + list(layers.values())
        for layer, module in layers.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                if (layer, attr) == ("checks", "run_check"):
                    wrapped = self.span(_check_span_name, fn)
                elif (layer, attr) == ("quasifree", "wick_expectation"):
                    wrapped = self.span(f"{layer}.{attr}", fn, self._count_tokens)
                else:
                    wrapped = self.span(f"{layer}.{attr}", fn)
                self._rebind(modules, fn, wrapped)

        fock = layers["fock"]
        for cls_name, methods in FOCK_METHODS.items():
            cls = getattr(fock, cls_name)
            for attr in methods:
                raw = cls.__dict__[attr]
                name = f"fock.{cls_name}.{attr}"
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self.span(name, raw.__func__)))
                else:
                    self._patch(cls, attr, self.span(name, raw))

        self._rebind([fock], fock.expm_multiply,
                     self.span("fock.expm_multiply", fock.expm_multiply, self._operator_size))
        self._rebind([fock], fock.eigsh, self.span("fock.eigsh", fock.eigsh))
        # the spectrum check reaches eigvalsh as ``np.linalg.eigvalsh``
        self._patch(numpy.linalg, "eigvalsh",
                    self.span("fock.eigvalsh", numpy.linalg.eigvalsh))
        # asymptotics reaches quad as ``integrate.quad``
        self._patch(scipy.integrate, "quad",
                    self.span("asymptotics.quad", scipy.integrate.quad, self._count_integrand))
        self._patch(fock, "warnings", self._counting_warnings(fock.warnings))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._main_stack = None

    # -- counters riding on spans -------------------------------------------

    def _operator_size(self, args, kwargs):
        op = args[0] if args else kwargs["A"]
        self.maxima["dim"] = max(self.maxima["dim"], int(op.shape[0]))
        self.maxima["nnz"] = max(self.maxima["nnz"], int(getattr(op, "nnz", op.size)))
        return args, kwargs

    def _count_integrand(self, args, kwargs):
        func = args[0] if args else kwargs.pop("func")
        counts = self.counts

        def counted(*a):
            counts["integrand_evals"] += 1
            return func(*a)

        return (counted,) + tuple(args[1:]), kwargs

    def _count_tokens(self, args, kwargs):
        word = args[1] if len(args) > 1 else kwargs["word"]
        self.counts["wick_tokens"] += len(word)
        return args, kwargs

    def _counting_warnings(self, warnings_module):
        counts = self.counts

        def warn(message, category=None, stacklevel=1, **kwargs):
            if LEAK_MESSAGE in str(message):
                counts["leak_warnings"] += 1
            return warnings_module.warn(message, category, stacklevel + 1, **kwargs)

        return types.SimpleNamespace(warn=warn)

    # -- per-layer metrics ----------------------------------------------------

    def metrics(self, check_names) -> dict:
        """Per-layer metrics of everything traced so far."""
        calls, total, own = self.calls, self.total_s, self.self_s

        def layer_self(*prefixes):
            return sum(v for k, v in own.items() if k.split(".", 1)[0] in prefixes)

        closed_form = [k for k in calls if k.split(".", 1)[0] in ("model", "fluctuations")]
        checks = {name: total.get(f"checks.{name}", 0.0) for name in check_names}
        out = {
            "fock.expm_multiply.calls": calls["fock.expm_multiply"],
            "fock.expm_multiply.s": total["fock.expm_multiply"],
            "fock.expm_multiply.dim_max": self.maxima["dim"],
            "fock.expm_multiply.nnz_max": self.maxima["nnz"],
            "fock.clt_char_function.calls": calls["fock.clt_char_function"],
            "fock.clt_char_function.s": total["fock.clt_char_function"],
            "fock.eig.calls": sum(calls[k] for k in EIG_SPANS),
            "fock.eig.s": sum(total[k] for k in EIG_SPANS),
            "fock.assembly.s": sum(v for k, v in own.items()
                                   if k in ASSEMBLY_SPANS or k.startswith(ASSEMBLY_PREFIX)),
            "fock.leak_warnings": self.counts["leak_warnings"],
            "fock.self_s": layer_self("fock"),
            "asymptotics.wibg_pair_bubble.calls": calls["asymptotics.wibg_pair_bubble"],
            "asymptotics.wibg_pair_bubble.s": total["asymptotics.wibg_pair_bubble"],
            "asymptotics.bose_bubble_integral.calls": calls["asymptotics.bose_bubble_integral"],
            "asymptotics.bose_bubble_integral.s": total["asymptotics.bose_bubble_integral"],
            "asymptotics.quad.calls": calls["asymptotics.quad"],
            "asymptotics.quad.integrand_evals": self.counts["integrand_evals"],
            "asymptotics.self_s": layer_self("asymptotics"),
            "quasifree.wick_expectation.calls": calls["quasifree.wick_expectation"],
            "quasifree.wick_expectation.s": total["quasifree.wick_expectation"],
            "quasifree.wick_expectation.tokens": self.counts["wick_tokens"],
            "quasifree.finite_volume_variance.calls": calls["quasifree.finite_volume_variance"],
            "quasifree.finite_volume_variance.s": total["quasifree.finite_volume_variance"],
            "quasifree.self_s": layer_self("quasifree"),
            "fluctuations.closed_form.calls": sum(calls[k] for k in closed_form),
            "fluctuations.closed_form.self_s": layer_self("model", "fluctuations"),
            "model.bogoliubov_spectrum.calls": calls["model.bogoliubov_spectrum"],
            "checks.critical_path_s": max(checks.values(), default=0.0),
            "checks.self_s": layer_self("checks"),
            "cli.self_s": layer_self("cli"),
        }
        out.update({f"checks.{name}.s": value for name, value in checks.items()})
        return out

    def span_records(self) -> dict:
        return {"fields": ["span_id", "parent_id", "name", "start", "end"],
                "spans": self.spans}


def _check_span_name(args, kwargs) -> str:
    return f"checks.{args[0] if args else kwargs['name']}"
