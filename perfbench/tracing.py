"""Spans recorded around calls into the program's modules.

Wrappers are installed at the names the callers look up (a module global or
a dict entry), so e.g. the wrapper for `radial_fourier` goes on the `kernels`
module and the one for `unbounded_line_integral` on `slayer`.  Spans are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager

# (module, attribute, span name): the functions whose calls are timed.
TARGETS = (
    ("cli", "run_suites", "cli.run_suites"),
    ("fields", "load_config", "fields.load_config"),
    ("fields", "pairing_predicates", "fields.pairing_predicates"),
    ("slayer", "fermi_conservation_residual", "slayer.fermi_conservation_residual"),
    ("slayer", "_box_quadrupole_hat", "slayer._box_quadrupole_hat"),
    ("slayer", "sigma_fermi", "slayer.sigma_fermi"),
    ("slayer", "ip_fermi", "slayer.ip_fermi"),
    ("slayer", "sigma_bose", "slayer.sigma_bose"),
    ("slayer", "ip_bose", "slayer.ip_bose"),
    ("slayer", "positivity_probe", "slayer.positivity_probe"),
    ("slayer", "time_average_identity_check", "slayer.time_average_identity_check"),
    ("slayer", "unbounded_line_integral", "lineint.unbounded_line_integral"),
    ("kernels", "oracle_ratio", "kernels.oracle_ratio"),
    ("kernels", "radial_fourier", "kernels.radial_fourier"),
    ("kernels", "k0hat_shell_ratio", "kernels.k0hat_shell_ratio"),
    ("kernels", "kernel_table", "kernels.kernel_table"),
    ("lineint", "nested_line_integral", "lineint.nested_line_integral"),
    ("lineint", "bidist_A_oracle", "lineint.bidist_A_oracle"),
    ("lineint", "eval_piecewise", "lineint.eval_piecewise"),
    ("convolution", "conv_masscone_shell_oracle", "convolution.conv_masscone_shell_oracle"),
    ("convolution", "conv_K0_shell_oracle", "convolution.conv_K0_shell_oracle"),
    ("clifford", "closed_chain_projectors", "clifford.closed_chain_projectors"),
)
SUITES = ("clifford", "convolution", "fields", "kernels", "lineint", "slayer")

# span fields
NAME, START, END, PARENT, OP, CPU, MAIN = range(7)


class Tracer:
    """Records spans [name, start, end, parent, op, cpu, on_main_thread].

    A span's parent is the innermost open span of its thread; a span opened
    by a worker thread with nothing open hangs under the main thread's
    innermost open span (the verify suites run in a thread pool)."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._installed = []
        self._lock = threading.Lock()  # suites append spans from pool threads

    def _begin(self, name):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        parent = stack[-1] if stack else (self._stacks.get(self._main) or [None])[-1]
        span = [name, time.perf_counter(), None, parent, self.op, time.thread_time(), tid == self._main]
        with self._lock:
            self.spans.append(span)
            sid = len(self.spans) - 1
        stack.append(sid)
        return sid

    def _end(self, sid):
        span = self.spans[sid]
        span[END] = time.perf_counter()
        span[CPU] = time.thread_time() - span[CPU]
        self._stacks[threading.get_ident()].pop()

    @contextmanager
    def span(self, name):
        sid = self._begin(name)
        try:
            yield
        finally:
            self._end(sid)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(sid)

        return traced

    def install(self, modules):
        """Wrap every target present in `modules` (name -> module).  Targets a
        later version of the program no longer has are skipped."""
        for mod_name, attr, name in TARGETS:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if callable(fn):
                self._installed.append((mod.__dict__, attr, fn))
                setattr(mod, attr, self.wrap(name, fn))
        suites = getattr(modules["cli"], "_SUITES", {})
        for suite in SUITES:
            if suite in suites:
                self._installed.append((suites, suite, suites[suite]))
                suites[suite] = self.wrap(f"cli.suite_{suite}", suites[suite])

    def uninstall(self):
        for namespace, attr, fn in reversed(self._installed):
            namespace[attr] = fn
        self._installed.clear()


def busy(span):
    """Busy time of a span: wall time on the main thread; thread CPU time in
    a worker thread, whose wall time also counts waiting for the
    interpreter lock while sibling threads run."""
    return span[END] - span[START] if span[MAIN] else span[CPU]


def self_time(spans, sid, children):
    """Duration of span `sid` minus the part its direct children cover."""
    span = spans[sid]
    covered, cursor = 0.0, span[START]
    for c in sorted(children.get(sid, ()), key=lambda c: spans[c][START]):
        lo, hi = max(spans[c][START], cursor), spans[c][END]
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span[END] - span[START] - covered


def children_of(spans):
    out = {}
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            out.setdefault(s[PARENT], []).append(i)
    return out


def nesting_errors(spans):
    """Spans that end before they start, or that are not inside their parent
    (in time and op)."""
    errors = []
    for i, s in enumerate(spans):
        if s[END] is None or s[END] < s[START]:
            errors.append(f"span {i} {s[NAME]} not closed in order")
            continue
        if s[PARENT] is not None:
            p = spans[s[PARENT]]
            if not (p[START] <= s[START] and s[END] <= p[END] and p[OP] == s[OP]):
                errors.append(f"span {i} {s[NAME]} outside its parent {p[NAME]}")
    return errors
