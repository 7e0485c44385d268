"""Per-layer tracing from outside the kernel.

The layers are the modules of `transseries`.  `Tracer.install` replaces
every public function (and every method of the package's classes) with a
timing wrapper in each module namespace that bound it, so calls between
modules pass through the wrappers.  The expander closure of each new
series node is wrapped too and charged to the module that defined it:
`compose`'s expander counts as calculus, not as series.

A wrapper records a span: its duration minus the spans of the wrapped
calls it made is the self time of its layer.  Nothing in the kernel is
edited; the wrappers live only in this process.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types

LAYERS = ("monomial", "series", "calculus", "powerseries", "taylor", "parser", "cli")


def _layer(obj) -> str:
    return (getattr(obj, "__module__", None) or "").rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.self_s: dict = {}
        self.calls: dict = {}
        self.incl_s: dict = {}
        self.candidates_walked = 0
        self.product_bases = 0
        self._stack = [0.0]       # per open span: time spent in its child spans

    # -- spans ---------------------------------------------------------------

    def span(self, fn, layer: str, name: str, post=None, named: bool = True):
        stack, calls, self_s, incl = self._stack, self.calls, self.self_s, self.incl_s
        clock = time.perf_counter
        calls.setdefault(name, 0)
        incl.setdefault(name, 0.0)
        self_s.setdefault(layer, 0.0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                stack[-1] += dt
                incl[name] += dt
            if post is not None:
                post(out)
            return out

        return functools.update_wrapper(wrapper, fn) if named else wrapper

    def generator_span(self, fn, layer: str, name: str):
        """A span around each step of a generator; counts the yields."""
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter
        calls.setdefault(name, 0)
        self_s.setdefault(layer, 0.0)
        tracer = self

        def wrapper(*args, **kwargs):
            calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    self_s[layer] += dt - stack.pop()
                    stack[-1] += dt
                tracer.candidates_walked += 1
                yield value

        return functools.update_wrapper(wrapper, fn)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the kernel's functions; call once, after importing it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "transseries" or n.startswith("transseries.")]
        wrapped: dict = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)):
                    wrapped[id(obj)] = (obj, self.span(obj, layer, f"{layer}.{attr}"))
                elif isinstance(obj, type):
                    self._wrap_methods(obj, layer)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_methods(self, cls: type, layer: str) -> None:
        for attr, fn in list(vars(cls).items()):
            if attr.startswith("__") or not isinstance(fn, types.FunctionType):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isgeneratorfunction(fn):
                setattr(cls, attr, self.generator_span(fn, layer, name))
            elif cls.__name__ == "GridCertificate" and attr == "product":
                setattr(cls, attr, self.span(fn, layer, name, post=self._count_bases))
            else:
                setattr(cls, attr, self.span(fn, layer, name))
        if cls.__name__ == "TransSeries":
            init = cls.__init__
            span = self.span

            def traced_init(node, cert, expander):
                layer_of = _layer(expander)
                init(node, cert, span(expander, layer_of, f"{layer_of}.expander",
                                      named=False))

            cls.__init__ = traced_init

    def _count_bases(self, cert) -> None:
        self.product_bases += len(cert.bases)

    # -- results ---------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def metrics(self, monomial_before: dict, monomial_after: dict) -> dict:
        """The per-layer metrics of one traced round."""
        c = self.count
        make_calls = c("monomial.make_monomial")
        new = monomial_after["interned"] - monomial_before["interned"]
        out = {f"{layer}.self_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        out.update({
            "monomial.make_monomial_calls": make_calls,
            "monomial.mono_mul_calls": c("monomial.mono_mul"),
            "monomial.interned": monomial_after["interned"],
            "monomial.intern_hit_ratio": (make_calls - new) / make_calls if make_calls else 0.0,
            "monomial.mono_cmp_hits": monomial_after["hits"] - monomial_before["hits"],
            "monomial.mono_cmp_misses": monomial_after["misses"] - monomial_before["misses"],
            "series.expand_calls": c("series.TransSeries.expand"),
            "series.candidates_walked": self.candidates_walked,
            "series.render_s": self.incl_s.get("series.render_series", 0.0),
            "series.mul_nodes": c("series.mul"),
            "series.product_bases": self.product_bases,
            "series.points_above_calls": c("series.GridCertificate.points_above"),
            "series.member_calls": c("series.GridCertificate.member"),
            "calculus.compose_calls": c("calculus.compose"),
            "calculus.derive_calls": c("calculus.derive"),
            "calculus.log_exp_calls": c("calculus.log_series") + c("calculus.exp_series"),
            "powerseries.ps_eval_calls": c("powerseries.ps_eval"),
            "powerseries.cut_member_calls": c("powerseries.cut_member"),
            "taylor.locus_contains_calls": c("taylor.locus_contains"),
            "parser.parse_calls": c("parser.parse"),
            "cli.build_parser_s": self.incl_s.get("cli.build_parser", 0.0),
        })
        return out

    def reset(self) -> None:
        """Zero every counter (before the timed region)."""
        for d in (self.calls, self.incl_s, self.self_s):
            for k in d:
                d[k] = 0 if d is self.calls else 0.0
        self.candidates_walked = self.product_bases = 0
        self._stack[:] = [0.0]


def monomial_state() -> dict:
    """Interned monomials and `mono_cmp` cache statistics, read from the
    original objects (the tracer's wrappers hide `cache_info`)."""
    from transseries import monomial

    cmp = monomial.mono_cmp
    cmp = getattr(cmp, "__wrapped__", cmp)
    info = cmp.cache_info()
    return {"interned": len(monomial._INTERN), "hits": info.hits, "misses": info.misses}
