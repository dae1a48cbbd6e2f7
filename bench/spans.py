"""Span recorder and the wrappers that time entkit's layers from outside.

Standard library only. Only the traced run imports this module: the wrappers
replace public entkit functions (in every entkit namespace that holds them),
the dense numpy/scipy kernels that entkit calls through ``np.linalg`` and
``scipy.linalg``, the suite tuple of ``verify`` and the subcommand table of
``cli``. ``Patches.restore`` puts every original back.

Span names are ``<layer>.<function>``; the per-layer metrics derived from
them are ``<name>.calls`` and ``<name>.self_s``, where self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from math import prod
from time import perf_counter_ns

# (layer, module, functions). Each function is wrapped wherever an entkit
# module namespace holds it, so `from .linalg import split_seed` is traced too.
LAYER_FUNCTIONS = (
    ("linalg", "entkit.linalg", (
        "unitarity_defect", "split_seed", "random_state", "unitary_log",
        "exp_i_hermitian", "tensor_product", "swap_unitary",
    )),
    ("bipartite", "entkit.bipartite", ("entanglement_entropy", "product_state", "is_product")),
    ("classify", "entkit.classify", (
        "classify_unitary", "brute_force_non_entangling", "operator_schmidt_rank",
        "realign", "classify_slice", "reconstruction_error",
    )),
    ("dynamics", "entkit.dynamics", (
        "geodesic_path", "path_point", "entanglement_profile", "profile_inputs",
    )),
    ("measurement", "entkit.measurement", (
        "measured_observable", "outcome_probabilities", "luders_instrument",
        "disturbance", "no_info_no_disturbance_check", "validate_povm",
    )),
    ("serialize", "entkit.serialize", (
        "matrix_from_json", "matrix_to_json", "canonical_json", "write_atomic",
    )),
)

# Suites reported per layer; every suite in verify.ALL_SUITES is traced.
VERIFY_SUITES = (
    "suite_prob_reproducibility", "suite_classifier_oracle", "suite_equal_dim_constraint",
    "suite_slice_consistency", "suite_trivial_observable", "suite_no_info_no_disturbance",
    "suite_swap_obstruction", "suite_local_generator_null",
)

# Subcommands the cli workload runs; `verify` is measured by its own workload.
CLI_COMMANDS = ("gen", "classify", "measure", "slice", "path")

# A verify pass opens about 250,000 spans; the JSONL file keeps the first ones.
KEEP_SPANS = 200_000

# (span name, module, attribute) of the dense kernels.
KERNELS = (
    ("kernel.svd", "numpy.linalg", "svd"),
    ("kernel.eigh", "numpy.linalg", "eigh"),
    ("kernel.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("kernel.schur", "scipy.linalg", "schur"),
    ("kernel.qr", "numpy.linalg", "qr"),
)


def _svd_flops(a, full_matrices=True, compute_uv=True, hermitian=False):
    m, n = a.shape[-2:]
    big, k = max(m, n), min(m, n)
    if compute_uv:
        return 4 * big * big * k + 8 * big * k * k + 9 * k ** 3
    return 4 * big * k * k - 4 * k ** 3 / 3


def _eigh_flops(a, *args, **kwargs):
    return 9 * a.shape[-1] ** 3


def _eigvalsh_flops(a, *args, **kwargs):
    return 4 * a.shape[-1] ** 3 / 3


def _schur_flops(a, *args, **kwargs):
    return 25 * a.shape[-1] ** 3


def _qr_flops(a, *args, **kwargs):
    m, n = a.shape[-2:]
    k = min(m, n)
    return 4 * max(m, n) * k * k - 4 * k ** 3 / 3


# Real-arithmetic operation counts of the dense LAPACK algorithms (Golub and
# Van Loan, "Matrix Computations", 4th ed., 5.4 / 8.6 / 7.5), computed from
# the argument shapes, times the batch size, times 4 for complex input. They
# are not measured counts.
KERNEL_FLOPS = {
    "kernel.svd": _svd_flops,
    "kernel.eigh": _eigh_flops,
    "kernel.eigvalsh": _eigvalsh_flops,
    "kernel.schur": _schur_flops,
    "kernel.qr": _qr_flops,
}


def computed_flops(name: str, args: tuple, kwargs: dict) -> float:
    a = args[0]
    batch = prod(a.shape[:-2])
    factor = 4 if getattr(a.dtype, "kind", "f") == "c" else 1
    return factor * batch * KERNEL_FLOPS[name](*args, **kwargs)


class Recorder:
    """Spans kept in memory: (id, parent id, name, start ns, end ns).

    Per-name call counts and self times are accumulated as spans close, so
    they stay exact when more than ``KEEP_SPANS`` spans are opened; spans
    beyond it are counted in ``dropped`` and left out of the JSONL file.
    """

    def __init__(self):
        self.active = False
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.top_ns = 0
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        self._next_id = 0

    def is_open(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, name, 0, perf_counter_ns()]  # id, parent, name, child ns, start
        self._next_id += 1
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter_ns()
        span_id, parent, name, child_ns, start = frame
        self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.top_ns += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, parent, name, start, end))
        else:
            self.dropped += 1

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start_ns": start, "end_ns": end}
                ) + "\n")


def _span_wrapper(rec: Recorder, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        if before is not None:
            before(args, kwargs)
        frame = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(frame)
        if after is not None:
            after(result)
        return result

    return wrapper


class Patches:
    """Attribute and item replacements, undone in reverse by ``restore``."""

    def __init__(self):
        self._undo: list[tuple[object, str, object, bool]] = []

    def set_attr(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def set_item(self, owner: dict, key: str, value) -> None:
        self._undo.append((owner, key, owner[key], True))
        owner[key] = value

    def restore(self) -> None:
        while self._undo:
            owner, key, original, is_item = self._undo.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)


def _entkit_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "entkit" or n.startswith("entkit."))]


def install(rec: Recorder) -> Patches:
    """Wrap every layer function, suite, subcommand and kernel; return the undo log."""
    patches = Patches()
    modules = _entkit_modules()

    def witness_or_oracle(args, kwargs):
        if rec.is_open("classify.classify_unitary"):
            rec.count("classify.witness_candidates")
        if rec.is_open("classify.brute_force_non_entangling"):
            rec.count("classify.oracle_candidates")

    def verdict(result):
        if getattr(result, "verdict", None) == "entangling":
            rec.count("classify.entangling_verdicts")

    def written(args, kwargs):
        text = args[1] if len(args) > 1 else kwargs["text"]
        rec.count("serialize.bytes_written", len(text.encode()))

    hooks = {
        "bipartite.product_state": (witness_or_oracle, None),
        "classify.classify_unitary": (None, verdict),
        "serialize.write_atomic": (written, None),
    }
    for layer, module_name, functions in LAYER_FUNCTIONS:
        module = sys.modules[module_name]
        for fname in functions:
            name = f"{layer}.{fname}"
            original = getattr(module, fname, None)
            if original is None:  # gone from entkit: its metrics read 0
                continue
            before, after = hooks.get(name, (None, None))
            wrapped = _span_wrapper(rec, name, original, before, after)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        patches.set_attr(m, attr, wrapped)

    verify = sys.modules["entkit.verify"]
    wrapped_suites = tuple(_span_wrapper(rec, f"verify.{fn.__name__}", fn) for fn in verify.ALL_SUITES)
    for w in wrapped_suites:
        patches.set_attr(verify, w.__name__, w)
    patches.set_attr(verify, "ALL_SUITES", wrapped_suites)
    patches.set_attr(verify, "run_all", _span_wrapper(rec, "verify.run_all", verify.run_all))

    cli = sys.modules["entkit.cli"]
    for command in CLI_COMMANDS:
        if command in cli.COMMANDS:
            patches.set_item(cli.COMMANDS, command, _span_wrapper(rec, f"cli.{command}", cli.COMMANDS[command]))

    # Bytes read are counted where the cli loads a JSON file; the load is
    # not a span of its own, so its parse time stays in the subcommand.
    load_json = getattr(cli, "_load_json", None)
    if load_json is not None:
        @functools.wraps(load_json)
        def counted_load(path):
            if rec.active:
                rec.count("serialize.bytes_read", os.path.getsize(path))
            return load_json(path)

        patches.set_attr(cli, "_load_json", counted_load)

    for name, module_name, attr in KERNELS:
        module = sys.modules[module_name]

        def add_flops(args, kwargs, name=name):
            rec.count(f"{name}.flops_computed", computed_flops(name, args, kwargs))

        patches.set_attr(module, attr, _span_wrapper(rec, name, getattr(module, attr), add_flops))
    return patches
