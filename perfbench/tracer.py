"""Per-module call tracing for one benchmark pass.

``Tracer.install()`` wraps every public function of the package's modules
(the names in each module's ``__all__`` that the module defines, plus the
public methods of its non-dataclass classes) and rebinds the wrapper under
every name that refers to the original, so ``from .pathrep import
path_representation`` in ``barred`` and the module attribute
``kernels.descent_histogram`` that ``eulerian`` calls both resolve to it.
A call returning a generator is timed per ``next``.

Nothing under ``src/`` changes: the wrappers are installed from here, in a
fresh interpreter per pass.  Spans are kept in full only at job level; below
that, calls, busy time (outermost activations) and self time (duration
minus child spans) are aggregated per function, per group and per layer,
so millions of round trips fit in memory.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
import types

from reference import group_order

# Layer name -> the modules it covers.
LAYERS = {
    "kernels": ("signedpaths.kernels", "signedpaths._pykernels"),
    "eulerian": ("signedpaths.eulerian",),
    "sgnperm": ("signedpaths.sgnperm",),
    "pathrep": ("signedpaths.pathrep",),
    "barred": ("signedpaths.barred",),
    "threshold": ("signedpaths.threshold",),
    "posets": ("signedpaths.posets",),
    "cli": ("signedpaths.cli",),
}

# Functions whose busy time is reported together; nested calls inside one
# group count once.
GROUPS = {
    "threshold.enumerate_graphs": "threshold.enumerate",
    "threshold.enumerate_threshold_graphs": "threshold.enumerate",
    "threshold.enumerate_tg": "threshold.enumerate",
    "posets.weak_poset": "posets.build",
    "posets.tg_poset": "posets.build",
    "posets.FinitePoset.__init__": "posets.build",
}


class Tracer:
    """Aggregated call statistics for the wrapped package."""

    def __init__(self) -> None:
        self.funcs: dict[str, list] = {}   # name -> [calls, self_s, yields]
        self.groups: dict[str, list] = {}  # group -> [busy_s, depth]
        self.layers: dict[str, list] = {l: [0.0, 0.0, 0, 0] for l in LAYERS}  # busy, self, depth, entries
        self.observed: dict[str, float] = {}
        self._stack = [[0.0]]  # child time accumulated by each open span

    # -- installation ---------------------------------------------------

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        replace: dict[int, object] = {}
        for layer, names in LAYERS.items():
            for modname in names:
                try:
                    mod = importlib.import_module(modname)
                except ModuleNotFoundError as exc:
                    if exc.name != modname:
                        raise
                    continue
                short = modname.rsplit(".", 1)[1].lstrip("_")
                for name in getattr(mod, "__all__", ()):
                    obj = getattr(mod, name, None)
                    if getattr(obj, "__module__", None) != modname:
                        continue
                    if inspect.isfunction(obj):
                        replace[id(obj)] = tracer._wrap(obj, f"{short}.{name}", layer)
                    elif inspect.isclass(obj) and not dataclasses.is_dataclass(obj):
                        for attr, fn in list(vars(obj).items()):
                            if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                                setattr(obj, attr, tracer._wrap(fn, f"{short}.{name}.{attr}", layer))
        for modname, mod in list(sys.modules.items()):
            if modname == "signedpaths" or modname.startswith("signedpaths."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in replace:
                        setattr(mod, attr, replace[id(value)])
        return tracer

    def _wrap(self, fn, name: str, layer: str):
        fstat = self.funcs.setdefault(name, [0, 0.0, 0])
        gstat = self.groups.setdefault(GROUPS.get(name, name), [0.0, 0])
        lstat = self.layers[layer]
        hook = _HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter
        observed = self.observed

        def enter():
            stack.append([0.0])
            gstat[1] += 1
            if not lstat[2]:
                lstat[3] += 1
            lstat[2] += 1
            return clock()

        def leave(t0):
            d = clock() - t0
            own = d - stack.pop()[0]
            stack[-1][0] += d
            fstat[1] += own
            lstat[1] += own
            gstat[1] -= 1
            lstat[2] -= 1
            if not gstat[1]:
                gstat[0] += d
            if not lstat[2]:
                lstat[0] += d
            return d

        def traced_iter(gen):
            while True:
                t0 = enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    leave(t0)
                fstat[2] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            fstat[0] += 1
            t0 = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = leave(t0)
            if hook is not None:
                hook(observed, inspect.signature(fn).bind(*args, **kwargs).arguments, result, d)
            if type(result) is types.GeneratorType:
                return traced_iter(result)
            return result

        return traced

    # -- job spans ------------------------------------------------------

    def self_by_layer(self) -> dict[str, float]:
        return {layer: stat[1] for layer, stat in self.layers.items()}

    def raw(self) -> dict:
        return {
            "funcs": self.funcs,
            "groups": {g: s[0] for g, s in self.groups.items()},
            "layers": {l: {"busy_s": s[0], "self_s": s[1], "entries": s[3]}
                       for l, s in self.layers.items()},
            "observed": self.observed,
        }


# ---------------------------------------------------------------------------
# Counts observed (or computed from arguments) at particular calls.


def _add(observed: dict, key: str, value: float) -> None:
    observed[key] = observed.get(key, 0) + value


def _descent_histogram(observed, args, result, seconds):
    _add(observed, "kernels.elements", group_order(args["kind"], args["n"]))
    _add(observed, f"kernels.hist_{args['kind']}{args['n']}_s", seconds)


def _positive_histogram(observed, args, result, seconds):
    _add(observed, "kernels.elements", group_order("B", args["n"]))
    _add(observed, f"kernels.hist_pos{args['n']}_s", seconds)


def _threshold_graphs(observed, args, result, seconds):
    n = args["n"]
    _add(observed, "threshold.graphs_examined", 2 ** (n * (n - 1) // 2))


def _poset_init(observed, args, result, seconds):
    size = len(args["self"])
    _add(observed, "posets.elements", size)
    _add(observed, "posets.leq_evals", size * size)


_HOOKS = {
    "kernels.descent_histogram": _descent_histogram,
    "kernels.positive_descent_histogram": _positive_histogram,
    "threshold.enumerate_threshold_graphs": _threshold_graphs,
    "posets.FinitePoset.__init__": _poset_init,
}


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass.

# Counts derived from call arguments rather than counted at run time.
COMPUTED = ("kernels.elements", "threshold.graphs_examined", "posets.leq_evals")


def layer_metrics(raw: dict, work: dict, work_s: dict) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    funcs, groups, layers, obs = raw["funcs"], raw["groups"], raw["layers"], raw["observed"]

    def calls(name):
        return funcs.get(name, (0, 0.0, 0))[0]

    def own(name):
        return funcs.get(name, (0, 0.0, 0))[1]

    def yields(name):
        return funcs.get(name, (0, 0.0, 0))[2]

    def busy(*names):
        return sum(groups.get(n, 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    elements = obs.get("kernels.elements", 0)
    examined = obs.get("threshold.graphs_examined", 0)
    m = {
        "kernels.calls": layers["kernels"]["entries"],
        "kernels.busy_s": layers["kernels"]["busy_s"],
        "kernels.elements": elements,
        "kernels.elements_per_s": ratio(elements, layers["kernels"]["busy_s"]),
        "kernels.hist_A9_s": obs.get("kernels.hist_A9_s", 0.0),
        "kernels.hist_B8_s": obs.get("kernels.hist_B8_s", 0.0),
        "kernels.hist_D8_s": obs.get("kernels.hist_D8_s", 0.0),
        "kernels.hist_pos8_s": obs.get("kernels.hist_pos8_s", 0.0),
        "eulerian.verify_calls": calls("eulerian.verify_identity"),
        "eulerian.verify_self_s": own("eulerian.verify_identity"),
        "eulerian.formula_s": own("eulerian.eulerian") + own("eulerian.eulerian_polynomial"),
        "sgnperm.enumerate_group_s": busy("sgnperm.enumerate_group"),
        "sgnperm.elements_yielded": yields("sgnperm.enumerate_group"),
        "sgnperm.chi_s": busy("sgnperm.chi", "sgnperm.chi_inverse"),
        "sgnperm.inversion_set_calls": calls("sgnperm.inversion_set"),
        "sgnperm.inversion_set_s": busy("sgnperm.inversion_set"),
        "sgnperm.descent_count_s": busy("sgnperm.descent_count"),
        "pathrep.path_representation_calls": calls("pathrep.path_representation"),
        "pathrep.path_representation_s": busy("pathrep.path_representation"),
        "pathrep.signed_from_path_s": busy("pathrep.signed_from_path"),
        "pathrep.render_s": busy("pathrep.render_ascii", "pathrep.render_svg"),
        "barred.psi_s": busy("barred.psi"),
        "barred.psi_inverse_s": busy("barred.psi_inverse"),
        "barred.theta_s": busy("barred.theta"),
        "barred.theta_inverse_s": busy("barred.theta_inverse"),
        "barred.enumerate_s": busy("barred.enumerate_sbp", "barred.enumerate_lbp"),
        "barred.roundtrips": work.get("barred.roundtrips", 0),
        "barred.roundtrips_per_s": ratio(work.get("barred.roundtrips", 0),
                                         work_s.get("barred.roundtrips", 0.0)),
        "threshold.tg_pair_s": busy("threshold.tg_pair"),
        "threshold.signed_from_tg_s": busy("threshold.signed_from_tg"),
        "threshold.enumerate_s": busy("threshold.enumerate"),
        "threshold.graphs_examined": examined,
        "threshold.graphs_yielded": yields("threshold.enumerate_threshold_graphs"),
        "threshold.yield_ratio": ratio(yields("threshold.enumerate_threshold_graphs"), examined),
        "posets.build_s": busy("posets.build"),
        "posets.elements": obs.get("posets.elements", 0),
        "posets.leq_evals": obs.get("posets.leq_evals", 0),
        "posets.lattice_s": busy("posets.FinitePoset.lattice_check"),
        "posets.covers_s": busy("posets.FinitePoset.covers"),
        "posets.joinirr_s": busy("posets.FinitePoset.join_irreducible_count"),
        "posets.iso_s": busy("posets.order_isomorphism_check"),
        "cli.commands": calls("cli.run"),
    }
    for layer, stat in layers.items():
        m[f"{layer}.self_s"] = stat["self_s"]
    return m
