"""Outside-in tracing of padicsums layers.

The tracer rebinds selected public functions in every ``padicsums.*``
namespace that holds them (``verify`` keeps its own ``ord_int`` from
``from .padic import ord_int``, for example), so calls made inside the
package are seen too.  Nothing in the package changes.

Every wrapped call pushes a frame; a function's self time is its duration
minus the time its wrapped children took.  Hot functions are aggregated
into per-name counters only.  Coarse functions (one per sweep, CLI command
or query) also record a span with a parent id, kept in memory and written
out at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

_MARK = "__perfbench_wrapped__"


class Target:
    """One traced function: ``module.func`` plus its extra counters."""

    def __init__(self, module, func, span=False, counters=(), count=None, on_error=None):
        self.module = module
        self.func = func
        self.span = span
        self.counters = tuple(counters)
        self.count = count  # count(stats, fn, args, kwargs, result)
        self.on_error = on_error  # on_error(tracer, exc, parent_frame)

    @property
    def name(self) -> str:
        return f"{self.module}.{self.func}"


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_mstirling(st, fn, args, kwargs, res):
    # Hot: every call site passes (k, m, p, E) positionally; avoid binding.
    m = args[1] if len(args) > 1 else kwargs["m"]
    st["terms"] += m + 1


def _count_stable_params(st, fn, args, kwargs, res):
    lo, hi = res.m_scanned
    st["m_scanned"] += hi - lo + 1
    st["bigint_terms"] += (lo + hi) * (hi - lo + 1) // 2


def _count_min_stirling(st, fn, args, kwargs, res):
    from padicsums import stirling

    a = _bind(fn, args, kwargs)
    n, lo_hi = a["n"], res.m_scanned
    st["m_scanned"] += lo_hi[1] - lo_hi[0] + 1
    e0 = a["precision"] if a["precision"] is not None else stirling.default_precision(a["p"], n)
    st["precision_doublings"] += (res.precision // e0).bit_length() - 1
    if res.certificate != "exact-finite-k":
        st["window_extensions"] += (lo_hi[1] - n - a["window"]) // stirling.WINDOW_STEP
    if res.witness_m is not None:
        st["tail_m"] += lo_hi[1] - res.witness_m


def _min_stirling_error(tracer, exc, parent):
    from padicsums.stirling import PrecisionError

    if isinstance(exc, PrecisionError):
        tracer.extra["stirling.precision_errors"] += 1


def _stable_min_error(tracer, exc, parent):
    # ep_auto catches ValueError from the family path and falls back to a
    # direct scan, so the stable_params scan behind it was wasted.
    if isinstance(exc, ValueError) and parent[1] == "su_bounds.ep_auto":
        tracer.stats["su_bounds.ep_auto"]["family_fallbacks"] += 1


def _count_bound_sweep(st, fn, args, kwargs, res):
    from padicsums import verify

    a = _bind(fn, args, kwargs)
    grid = a["grid"]
    if grid is None or grid == "default":
        blocks = verify.default_grid(tuple(a["checks"])[0])
    elif isinstance(grid, dict):
        blocks = [grid]
    else:
        blocks = list(grid)
    for b in blocks:
        st["cells"] += len(b["p"]) * len(b["alpha"]) * len(b["n"]) * len(b["r"])
    st["instances"] += sum(r.checked + r.skipped for r in res.values())


def _count_report(st, fn, args, kwargs, res):
    st["instances"] += res.checked + res.skipped


TARGETS = (
    Target("padic", "ord_int"),
    Target("padic", "ord_factorial"),
    Target("padic", "carries"),
    Target("padic", "trunc_val"),
    Target("exponents", "carmichael_prime_power"),
    Target("exponents", "parse_exponent"),
    Target("polysum", "alt_sum"),
    Target("polysum", "check_split_identity"),
    Target("stirling", "mstirling_mod", counters=("terms",), count=_count_mstirling),
    Target(
        "stirling", "stable_params", span=True,
        counters=("m_scanned", "bigint_terms"), count=_count_stable_params,
    ),
    Target(
        "stirling", "min_stirling_ord", span=True,
        counters=("m_scanned", "precision_doublings", "window_extensions", "tail_m"),
        count=_count_min_stirling, on_error=_min_stirling_error,
    ),
    Target("stirling", "stable_min_ord", span=True, on_error=_stable_min_error),
    Target(
        "verify", "bound_sweep", span=True,
        counters=("cells", "instances"), count=_count_bound_sweep,
    ),
    Target("verify", "sweep", span=True, counters=("instances",), count=_count_report),
    Target("verify", "identity_sweep", span=True, counters=("instances",), count=_count_report),
    Target("verify", "check_stirling_diff_bound"),
    Target("verify", "check_equality_conjecture"),
    Target("su_bounds", "emit_table1", span=True),
    Target("su_bounds", "emit_delta", span=True),
    Target("su_bounds", "ep_auto", span=True, counters=("family_fallbacks",)),
    Target("cli", "main", span=True),
)

EXTRA_COUNTERS = ("stirling.precision_errors",)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "padicsums" or name.startswith("padicsums."))]


def originals() -> dict[str, object]:
    """The unwrapped function object of every target, by name."""
    out = {}
    for t in TARGETS:
        fn = getattr(importlib.import_module(f"padicsums.{t.module}"), t.func)
        out[t.name] = getattr(fn, _MARK, fn)
    return out


def assert_unpatched(orig: dict[str, object]) -> None:
    """Raise unless no padicsums namespace holds a wrapper and every target is original."""
    for m in _package_modules():
        for attr, val in vars(m).items():
            if hasattr(val, _MARK):
                raise AssertionError(f"{m.__name__}.{attr} is still wrapped")
    for t in TARGETS:
        mod = importlib.import_module(f"padicsums.{t.module}")
        if getattr(mod, t.func) is not orig[t.name]:
            raise AssertionError(f"padicsums.{t.name} is not the original function")


class Tracer:
    """Install wrappers, collect counters and spans, restore the originals."""

    def __init__(self):
        self.stats = {t.name: dict.fromkeys(("calls", "self_s") + t.counters, 0) for t in TARGETS}
        self.extra = dict.fromkeys(EXTRA_COUNTERS, 0)
        self.spans: list[dict] = []
        # frame = [child seconds, target name, innermost span id]
        self._stack = [[0.0, None, None]]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, t: Target, fn):
        st = self.stats[t.name]
        stack = self._stack
        spans = self.spans
        name = t.name

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = None
            if t.span:
                span_id = len(spans)
                root = spans[parent[2]]["root"] if parent[2] is not None else span_id
                spans.append({"id": span_id, "parent": parent[2], "root": root, "name": name})
            frame = [0.0, name, span_id if t.span else parent[2]]
            stack.append(frame)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                if t.on_error is not None:
                    t.on_error(self, exc, parent)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                st["calls"] += 1
                st["self_s"] += d - frame[0]
                parent[0] += d
                if span_id is not None:
                    spans[span_id].update(start=t0, end=t1, self_s=d - frame[0])
            if t.count is not None:
                t.count(st, fn, args, kwargs, res)
            return res

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def install(self) -> None:
        mods = _package_modules()
        for t in TARGETS:
            fn = getattr(importlib.import_module(f"padicsums.{t.module}"), t.func)
            wrapper = self._wrap(t, fn)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, st in self.stats.items():
            for key, val in st.items():
                out[f"{name}.{key}"] = val
        out.update(self.extra)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
