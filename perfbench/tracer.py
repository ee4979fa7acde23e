"""Span tracing from outside the program.

``Tracer.install`` wraps every public function of the traced modules, and the
``__init__`` of every public class, then rebinds each wrapped function in
every traced namespace that holds it (``lattice`` binds ``vertex_plane`` and
``gamma_sample`` from ``ngon``, the package binds ``validate``, ...).  Code
that imports inside a function body (``dodec`` from ``lattice``,
``_CompletionKernel`` from ``errfn``) reads the module attribute at call
time and so gets the wrapper too.  ``uninstall`` restores everything.

A span is ``[name, start, end, parent index, op index, value]``; ``value``
holds what a hook extracts from the result (rows enumerated, coefficients
emitted, kappa, a modularity report).  Spans stay in memory until the run
ends.
"""

import functools
import inspect
import time

MODULES = ("cli", "jsonio", "qspace", "ngon", "sig12", "lattice", "errfn",
           "dodec")


def _rows(result):
    return len(result)


def _nonzero_coeffs(result):
    return sum(1 for c in result.entries.values() if c != 0)


def _kappa(result):
    return result.kappa


def _report(result):
    return {k: result[k] for k in ("t_defect", "s_defect", "tail")}


HOOKS = {
    "lattice.enumerate_coset": _rows,
    "lattice.holomorphic_series": _nonzero_coeffs,
    "dodec.dodec_series": _nonzero_coeffs,
    "lattice.window_from_planes": _kappa,
    "lattice.modularity_check": _report,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._rebound = []      # (namespace object, attribute, original)
        self._inits = []        # (class, original __init__)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(result)
            return result

        return traced

    def install(self, package):
        import importlib
        mods = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for key, obj in list(vars(mod).items()):
                if key.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{short}.{key}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException) \
                        and "__init__" in vars(obj):
                    init = vars(obj)["__init__"]
                    self._inits.append((obj, init))
                    obj.__init__ = self._wrap(f"{short}.{key}", init)
        for ns in [importlib.import_module(package)] + mods:
            for key, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebound.append((ns, key, obj))
                    setattr(ns, key, wrappers[obj])
        return self

    def uninstall(self):
        for ns, key, obj in self._rebound:
            setattr(ns, key, obj)
        for cls, init in self._inits:
            cls.__init__ = init
        self._rebound, self._inits = [], []


def _layer(name):
    """The layer a span belongs to for self time, or None.  The jsonio
    readers and writers form one layer each."""
    if name.startswith("jsonio.load"):
        return "jsonio.load"
    if name.startswith("jsonio.dump"):
        return "jsonio.dump"
    return name if name in SELF_LAYERS else None


def layer_self_times(spans):
    """Self time per layer: the duration of each layer span minus the
    durations of the nearest layer spans below it.  Spans of functions that
    are not layers count toward the layer above them.  (Children never
    overlap: the program is single-threaded.)"""
    layer = [_layer(s[0]) for s in spans]
    nearest = [-1] * len(spans)     # nearest layer span at or above each span
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):  # parents precede children
        p = s[3]
        up = nearest[p] if p >= 0 else -1
        if layer[i] is not None:
            if up >= 0:
                child[up] += s[2] - s[1]
            nearest[i] = i
        else:
            nearest[i] = up
    out = {}
    for i, s in enumerate(spans):
        if layer[i] is not None:
            out[layer[i]] = out.get(layer[i], 0.0) + s[2] - s[1] - child[i]
    return out


def descendant_counts(spans, ancestor, name):
    """For each span called `ancestor`, the number of `name` spans below it."""
    counts = {i: 0 for i, s in enumerate(spans) if s[0] == ancestor}
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0:
            if p in counts:
                counts[p] += 1
                break
            p = spans[p][3]
    return list(counts.values())


def _under(spans, i, names):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False


SERIES = ("lattice.holomorphic_series", "dodec.dodec_series")

# spans whose self time is reported; the other spans' time stays with the
# nearest of these above them
SELF_LAYERS = {
    "lattice.enumerate_coset", "lattice.holomorphic_series",
    "sig12.truncated_class_series", "lattice.certify_window",
    "lattice.window_from_planes", "lattice.majorant_matrix",
    "qspace.NegativePlane", "dodec.certify_dodec_window",
    "dodec.dodec_series", "errfn.cone_dist2", "errfn.cone_mass_2d",
    "lattice.completion_eval", "lattice.modularity_check",
    "lattice.weil_matrices", "lattice.disc_group", "errfn.E3",
    "errfn.cone_mass_3d", "dodec.dodec_E_kernel", "dodec.validate_dodec",
    "dodec.dodec_P_kernel", "ngon.validate", "cli.main",
}


def layer_metrics(spans):
    """The per-layer metrics of perfbench/README.md from one traced pass."""
    self_s = layer_self_times(spans)
    calls = {}
    for s in spans:
        calls[s[0]] = calls.get(s[0], 0) + 1

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    def retries(name):
        return sum(1 for i, s in enumerate(spans)
                   if s[0] == name and _under(spans, i, (name,)))

    series_rows = sum(s[5] for i, s in enumerate(spans)
                      if s[0] == "lattice.enumerate_coset"
                      and _under(spans, i, SERIES))
    # coefficients of the series that were returned: a retried call's
    # result is the inner one, so count outermost series spans only
    coeffs = sum(s[5] for i, s in enumerate(spans)
                 if s[0] in SERIES and not _under(spans, i, SERIES))
    dist_calls = sum(1 for s in spans if s[0] == "errfn.cone_dist2"
                     and (s[3] < 0 or spans[s[3]][0] != "errfn.E3"))
    reports = [s[5] for s in spans if s[0] == "lattice.modularity_check"]
    kappas = [s[5] for s in spans if s[0] == "lattice.window_from_planes"]

    m = {
        "lattice.enumerate_coset.calls": n("lattice.enumerate_coset"),
        "lattice.enumerate_coset.rows": sum(
            s[5] for s in spans if s[0] == "lattice.enumerate_coset"),
        "lattice.enumerate_coset.self_s": t("lattice.enumerate_coset"),
        "lattice.holomorphic_series.self_s": t("lattice.holomorphic_series"),
        "lattice.holomorphic_series.retries":
            retries("lattice.holomorphic_series"),
        "sig12.truncated_class_series.self_s":
            t("sig12.truncated_class_series"),
        "lattice.series.coeffs_per_row":
            coeffs / series_rows if series_rows else 0.0,
        "lattice.certify_window.calls": n("lattice.certify_window"),
        "lattice.certify_window.self_s": t("lattice.certify_window"),
        "lattice.window_from_planes.self_s": t("lattice.window_from_planes"),
        "lattice.majorant_matrix.calls": n("lattice.majorant_matrix"),
        "lattice.majorant_matrix.self_s": t("lattice.majorant_matrix"),
        "lattice.window.kappa_max": max(kappas, default=0.0),
        "qspace.NegativePlane.calls": n("qspace.NegativePlane"),
        "qspace.NegativePlane.self_s": t("qspace.NegativePlane"),
        "ngon.gamma_sample.calls": n("ngon.gamma_sample"),
        "dodec.certify_dodec_window.self_s": t("dodec.certify_dodec_window"),
        "dodec.dodec_series.self_s": t("dodec.dodec_series"),
        "errfn.cone_dist2.calls": n("errfn.cone_dist2"),
        "errfn.cone_dist2.self_s": t("errfn.cone_dist2"),
        "errfn.cone_mass_2d.calls": n("errfn.cone_mass_2d"),
        "errfn.cone_mass_2d.self_s": t("errfn.cone_mass_2d"),
        "errfn.cone_mass_2d.screen_ratio":
            n("errfn.cone_mass_2d") / dist_calls if dist_calls else 0.0,
        "lattice.completion_eval.calls": n("lattice.completion_eval"),
        "lattice.completion_eval.self_s": t("lattice.completion_eval"),
        "lattice.modularity_check.self_s": t("lattice.modularity_check"),
        "lattice.weil_matrices.calls": n("lattice.weil_matrices"),
        "lattice.weil_matrices.self_s": t("lattice.weil_matrices"),
        "lattice.disc_group.self_s": t("lattice.disc_group"),
        "errfn.E3.calls": n("errfn.E3"),
        "errfn.E3.self_s": t("errfn.E3"),
        "errfn.cone_mass_3d.calls": n("errfn.cone_mass_3d"),
        "errfn.cone_mass_3d.self_s": t("errfn.cone_mass_3d"),
        "errfn.E3.octant_ratio":
            n("errfn.cone_mass_3d") / (8 * n("errfn.E3")) if n("errfn.E3")
            else 0.0,
        "errfn.E1.calls": n("errfn.E1"),
        "dodec.dodec_E_kernel.self_s": t("dodec.dodec_E_kernel"),
        "dodec.validate_dodec.calls": n("dodec.validate_dodec"),
        "dodec.validate_dodec.self_s": t("dodec.validate_dodec"),
        "dodec.dodec_P_kernel.calls": n("dodec.dodec_P_kernel"),
        "dodec.dodec_P_kernel.self_s": t("dodec.dodec_P_kernel"),
        "ngon.validate.self_s": t("ngon.validate"),
        "cli.main.self_s": t("cli.main"),
        "jsonio.load.self_s": t("jsonio.load"),
        "jsonio.dump.self_s": t("jsonio.dump"),
        "lattice.modularity.t_defect_max":
            max((r["t_defect"] for r in reports), default=0.0),
        "lattice.modularity.s_defect_max":
            max((r["s_defect"] for r in reports), default=0.0),
        "lattice.modularity.tail_max":
            max((r["tail"] for r in reports), default=0.0),
    }
    return m


def unit(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("self_s"):
        return "s"
    if metric.endswith((".calls", ".rows", ".retries", "_warnings")):
        return "count"
    return "ratio"
