"""Per-layer tracing of the fockshift package, installed from outside.

The layers are the package modules.  ``Tracer.install`` replaces the public
functions listed in ``SPANNED`` with wrappers that record a span (name, start,
end, parent span, pass) in every module namespace that binds them, and
replaces the high-frequency entry points (``Word.__init__``,
``BasisEnumeration.index_of`` and each weight family's ``lambda_of``) with
wrappers that only count calls.  Spans are kept in flat arrays in memory and
written out once, after the last pass.  No file of the package changes.

A span's self time is its duration minus the durations of its child spans; a
layer's self time is the sum over its spans.  Time spent in ``words`` has no
span of its own and lands in the self time of the caller.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

import numpy as np

SPANNED = {
    "cli": ("main", "parse_config", "run_command", "parse_lambda"),
    "weights": (
        "check_cocycles", "check_intertwining", "condition6_sup", "commutant_mu", "mu_table",
        "require_bounded_mu", "table_from_strings", "semisimple_estimate", "lambda_from_mu",
    ),
    "fock": (
        "TruncatedFock.__init__", "weighted_left_shift", "weighted_right_shift", "left_creation",
        "right_creation", "build_shift", "commutation_defect", "spectral_norm", "norm_check",
        "vacuum_kernel_check",
    ),
    "algebra": (
        "FourierElement.build", "apply_fourier", "phi_band", "cesaro_sum", "word_operator",
        "operator_from_fourier", "pk_polynomial", "commutant_extract", "injectivity_pairing",
        "fourier_power_coeffs", "spectral_radius_lower",
    ),
    "eigen": (
        "eigenvector_coeffs", "eigen_residual", "joint_eigenspace_dim", "level_sums",
        "membership_verdict", "sample_point", "region_sample", "hereditary_check", "ellipse_predicate",
    ),
    "spectra": ("resolvent_check", "right_membership", "left_growth_certificate", "zero_left_inverses"),
}
LAYERS = ("cli", "words", "weights", "fock", "algebra", "eigen", "spectra")
SHIFT_BUILDERS = ("weighted_left_shift", "weighted_right_shift", "left_creation", "right_creation", "build_shift")


def _level_words(result, args) -> float:
    """Words a level_sums call enumerates: sum of n^k over its levels."""
    n = args[0].n
    return float(sum(n**k for k in range(len(result))))


# A number recorded on a span from the call's result, summed into a metric.
PAYLOADS = {
    "check_cocycles": lambda result, args: float(result.checks),
    "check_intertwining": lambda result, args: float(result.checks),
    "commutant_extract": lambda result, args: float(result.columns_checked),
    "level_sums": _level_words,
    **{name: (lambda result, args: float(result.mat.nnz)) for name in SHIFT_BUILDERS},
}

# metric name -> (functions, unit, what): inclusive time per pass of the
# outermost spans of the group, the number of such spans, or their payloads.
GROUPS = {
    "weights.cocycles_s": (("check_cocycles",), "s", "time"),
    "weights.intertwining_s": (("check_intertwining",), "s", "time"),
    "weights.condition6_s": (("condition6_sup",), "s", "time"),
    "weights.sweep_checks": (("check_cocycles", "check_intertwining"), "count", "payload"),
    "weights.commutant_mu_s": (("commutant_mu",), "s", "time"),
    "weights.commutant_mu_calls": (("commutant_mu",), "count", "calls"),
    "fock.shift_build_s": (SHIFT_BUILDERS, "s", "time"),
    "fock.shift_builds": (SHIFT_BUILDERS, "count", "calls"),
    "fock.nnz": (SHIFT_BUILDERS, "count", "payload"),
    "fock.commutation_s": (("commutation_defect",), "s", "time"),
    "fock.norms_s": (("norm_check",), "s", "time"),
    "fock.vacuum_kernel_s": (("vacuum_kernel_check",), "s", "time"),
    "algebra.word_operator_s": (("word_operator",), "s", "time"),
    "algebra.word_operator_calls": (("word_operator",), "count", "calls"),
    "algebra.extract_s": (("commutant_extract",), "s", "time"),
    "algebra.extract_columns": (("commutant_extract",), "count", "payload"),
    "algebra.cesaro_s": (("cesaro_sum", "pk_polynomial"), "s", "time"),
    "eigen.level_sums_s": (("level_sums",), "s", "time"),
    "eigen.level_sums_calls": (("level_sums",), "count", "calls"),
    "eigen.level_words": (("level_sums",), "count", "payload"),
    "eigen.verdict_s": (("membership_verdict",), "s", "time"),
    "eigen.residual_s": (("eigen_residual",), "s", "time"),
    "spectra.right_membership_s": (("right_membership",), "s", "time"),
    "spectra.zero_left_s": (("zero_left_inverses",), "s", "time"),
}
COUNTERS = ("words.word_allocs", "words.index_of_calls", "weights.lambda_evals")
DENSE = ("fock.dense_bytes", "spectra.dense_bytes")


def _modules() -> dict[str, object]:
    modules = {layer: sys.modules[f"fockshift.{layer}"] for layer in LAYERS}
    modules["package"] = sys.modules["fockshift"]
    return modules


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span name id -> "layer.function"
        self.layers: list[str] = []  # span name id -> layer
        self.name: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.payload: array = array("d")
        self.stack = [-1]
        self.passes: list[tuple[int, int, int]] = []  # (pass id, first span, end span)
        self.pass_id = 0
        self.pass_first = 0
        self.cells = {name: [0] for name in COUNTERS + DENSE}
        self.pass_counts: list[dict[str, int]] = []
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object, bool]] = []

    # -- recording --------------------------------------------------------

    def _span(self, layer: str, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(f"{layer}.{qualname}")
        self.layers.append(layer)
        payload = PAYLOADS.get(qualname)
        names, parents, starts, ends, values = self.name, self.parent, self.start, self.end, self.payload
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            values.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if payload is not None:
                values[index] = payload(result, args)
            return result

        return wrapper

    def _counter(self, metric: str, fn):
        cell = self.cells[metric]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _dense_counter(self, fn):
        """GradedOperator.to_dense: computed bytes 16*dim^2 of the complex
        matrix, credited to the layer of the innermost open span."""
        cells, layers, names, stack = self.cells, self.layers, self.name, self.stack

        @functools.wraps(fn)
        def wrapper(op, *args, **kwargs):
            top = stack[-1]
            metric = f"{layers[names[top]]}.dense_bytes" if top >= 0 else None
            if metric in cells:
                cells[metric][0] += 16 * op.space.dimension**2
            return fn(op, *args, **kwargs)

        return wrapper

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.pass_first = len(self.name)
        for cell in self.cells.values():
            cell[0] = 0

    def end_pass(self) -> None:
        self.passes.append((self.pass_id, self.pass_first, len(self.name)))
        self.pass_counts.append({metric: cell[0] for metric, cell in self.cells.items()})

    # -- patching ---------------------------------------------------------

    def _set(self, target, key, value, is_dict=False) -> None:
        original = target[key] if is_dict else target.__dict__[key]
        self._restore.append((target, key, original, is_dict))
        if is_dict:
            target[key] = value
        else:
            setattr(target, key, value)

    def install(self) -> None:
        """Wrap the package's public functions in every namespace binding them."""
        modules = _modules()
        namespaces = list(modules.values())
        for layer, qualnames in SPANNED.items():
            module = modules[layer]
            for qualname in qualnames:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = getattr(owner, "__dict__", {}).get(attr)
                if raw is None:
                    self.missing.append(f"{layer}.{qualname}")
                    continue
                if owner_name:
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._span(layer, qualname, raw.__func__))
                    else:
                        wrapped = self._span(layer, qualname, raw)
                    self._set(owner, attr, wrapped)
                    continue
                wrapped = self._span(layer, qualname, raw)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is raw:
                            self._set(namespace, key, wrapped)
        cli = modules["cli"]
        for verb, handler in list(cli.COMMANDS.items()):
            self._set(cli.COMMANDS, verb, self._span("cli", verb, handler), is_dict=True)

        words, weights, fock = modules["words"], modules["weights"], modules["fock"]
        self._set(words.Word, "__init__", self._counter("words.word_allocs", words.Word.__init__))
        self._set(words.BasisEnumeration, "index_of",
                  self._counter("words.index_of_calls", words.BasisEnumeration.index_of))
        # The base log_lambda_of delegates to lambda_of, so only overrides count apart.
        families = [weights.WeightSystem]
        while families:
            cls = families.pop()
            families.extend(cls.__subclasses__())
            for attr in ("lambda_of", "log_lambda_of"):
                if attr in cls.__dict__ and (attr == "lambda_of" or cls is not weights.WeightSystem):
                    self._set(cls, attr, self._counter("weights.lambda_evals", cls.__dict__[attr]))
        self._set(fock.GradedOperator, "to_dense", self._dense_counter(fock.GradedOperator.to_dense))

    def uninstall(self) -> None:
        for target, key, original, is_dict in reversed(self._restore):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        payload = np.frombuffer(self.payload, dtype=np.float64)
        return name, parent, start, end, payload

    def metrics(self, traced_walls: list[float], untraced_wall: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each the median over the traced passes."""
        name, parent, start, end, payload = self._arrays()
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(name))
        self_time = duration - child
        layer_of = np.array([LAYERS.index(layer) for layer in self.layers] + [0], dtype=np.int64)
        function_of = [n.split(".", 1)[1] for n in self.names]

        per_pass: dict[str, list[float]] = {}
        units: dict[str, str] = {}

        def put(metric: str, value: float, unit: str) -> None:
            per_pass.setdefault(metric, []).append(float(value))
            units[metric] = unit

        in_group = {
            metric: np.array([f in functions for f in function_of] + [False])
            for metric, (functions, _, _) in GROUPS.items()
        }
        for (pass_id, first, last), counts, wall in zip(self.passes, self.pass_counts, traced_walls):
            window = slice(first, last)
            names, parents = name[window], parent[window]
            layers = layer_of[names]
            for layer in LAYERS:
                if layer != "words":
                    put(f"{layer}.self_s", self_time[window][layers == LAYERS.index(layer)].sum(), "s")
            # parent name of each span, or the sentinel id of no group for roots
            parent_names = np.where(parents >= 0, name[np.maximum(parents, 0)], len(function_of))
            for metric, (_, unit, what) in GROUPS.items():
                member = in_group[metric]
                outermost = member[names] & ~member[parent_names]
                if what == "time":
                    value = duration[window][outermost].sum()
                elif what == "calls":
                    value = outermost.sum()
                else:
                    value = payload[window][outermost].sum()
                put(metric, value, unit)
            for metric in COUNTERS:
                put(metric, counts[metric], "count")
            for metric in DENSE:
                put(metric, counts[metric], "bytes")
            roots = duration[window][parents < 0].sum()
            put("trace.unaccounted_frac", (wall - roots) / wall, "fraction")
            put("trace.spans", last - first, "count")
        out = {metric: (statistics.median(values), units[metric]) for metric, values in per_pass.items()}
        out["trace.wall_s"] = (statistics.median(traced_walls), "s")
        out["trace.overhead_s"] = (statistics.median(traced_walls) - untraced_wall, "s")
        return out

    def write(self, path) -> None:
        """All spans, with the pass each belongs to, as one compressed .npz file."""
        name, parent, start, end, payload = self._arrays()
        pass_of = np.full(len(name), -1, dtype=np.int64)
        for pass_id, first, last in self.passes:
            pass_of[first:last] = pass_id
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent, start=start,
                            end=end, payload=payload, pass_id=pass_of)
