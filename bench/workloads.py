"""The benchmark's four workloads: inputs made from a seed, ops, output checks.

Each workload builds a list of ops. An op is one call into entkit (its
``run``) and an independent check of what the call returned (its ``check``,
which returns None when the output is correct and a reason otherwise). The
benchmark makes its inputs with numpy alone, so a change to entkit's own
generators cannot change a workload. Ops reach entkit through module
attributes at call time, so the traced run's wrappers see every call.

``tiny=True`` builds the same ops at the smallest sizes; set-up runs that
version once as its warm-up and the smoke test uses it.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from entkit import cli, classify, dynamics, verify

TOL = 1e-9
RECONSTRUCTION_BOUND = 1e-8


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


# ---------------------------------------------------------------- inputs


def child_seed(seed: int, label: str) -> int:
    ss = np.random.SeedSequence([seed, zlib.crc32(label.encode())])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def haar(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def unit_vector(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def hermitian(d: int, seed: int, scale: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (a + a.conj().T) / 2
    return h * (scale / np.abs(np.linalg.eigvalsh(h)).max())


def swap(d: int) -> np.ndarray:
    idx = np.arange(d * d)
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    s[(idx % d) * d + idx // d, idx] = 1.0
    return s


def make_unitary(family: str, d1: int, d2: int, seed: int) -> np.ndarray:
    if family == "product":
        return np.kron(haar(d1, child_seed(seed, "left")), haar(d2, child_seed(seed, "right")))
    if family == "dressed-swap":
        return np.kron(haar(d1, child_seed(seed, "left")), haar(d2, child_seed(seed, "right"))) @ swap(d1)
    if family == "generic":
        return haar(d1 * d2, seed)
    if family == "diagonal":
        phases = np.random.default_rng(seed).uniform(0, 2 * np.pi, d1 * d2)
        return np.diag(np.exp(1j * phases))
    if family == "controlled-phase":
        diag = np.ones(d1 * d2, dtype=np.complex128)
        diag[-1] = 1j
        return np.diag(diag)
    raise ValueError(f"unknown family {family}")


EXPECTED_VERDICT = {
    "product": "product",
    "dressed-swap": "swap",
    "generic": "entangling",
    "diagonal": "entangling",
    "controlled-phase": "entangling",
}


# ---------------------------------------------------------------- checks


def second_schmidt(vec: np.ndarray, d1: int, d2: int) -> float:
    s = np.linalg.svd(vec.reshape(d1, d2), compute_uv=False)
    return float(s[1]) if len(s) > 1 else 0.0


def check_form(u: np.ndarray, family: str, d1: int, d2: int, form) -> "str | None":
    expected = EXPECTED_VERDICT[family]
    if form.verdict != expected:
        return f"verdict {form.verdict}, expected {expected}"
    if expected == "product":
        err = np.linalg.norm(u - np.kron(form.v, form.w))
    elif expected == "swap":
        err = np.linalg.norm(u - np.kron(form.v21, form.w12) @ swap(d1))
    else:
        inp = form.input.vec
        if second_schmidt(inp, d1, d2) > TOL:
            return "witness input is not a product state"
        image = u @ inp
        if np.linalg.norm(image - form.witness.vec) > RECONSTRUCTION_BOUND:
            return "witness image is not U applied to the input"
        if second_schmidt(image, d1, d2) <= 10 * TOL:
            return "witness image has no second Schmidt coefficient above 10*tol"
        return None
    if err > RECONSTRUCTION_BOUND:
        return f"reconstruction error {err:.3e}"
    return None


def check_swap_profile(profile) -> "str | None":
    interior = any(pt.verdict == "entangling" for pt in profile.points if 0.0 < pt.t < 1.0)
    peak = profile.max_point().max_entropy_bits
    if not interior:
        return "no interior entangling point"
    if peak <= 0.5:
        return f"peak {peak:.3f} bit <= 0.5"
    return None


def check_null_profile(profile) -> "str | None":
    peak = profile.max_point().max_entropy_bits
    if peak >= 1e-9:
        return f"null path peak {peak:.3e} bit"
    if any(pt.verdict != "product" for pt in profile.points):
        return "null path has a non-product verdict"
    return None


# ---------------------------------------------------------------- verify


def verify_ops(seed: int, workdir: str, tiny: bool) -> list[Op]:
    if tiny:
        def suite_op(name):
            return Op(name, lambda: getattr(verify, name)(seed),
                      lambda r: None if r.passed else f"{name} failed")
        return [suite_op("suite_prob_reproducibility"), suite_op("suite_swap_obstruction")]

    first: list[str] = []

    def check(report) -> "str | None":
        text = json.dumps(report, sort_keys=True, indent=2)
        if not first:
            first.append(text)
        if not report["passed"]:
            return "verify report did not pass"
        if text != first[0]:
            return "verify report bytes differ between repetitions"
        return None

    return [Op("run_all", lambda: verify.run_all(seed), check)]


# ---------------------------------------------------------------- classify-large


def classify_ops(seed: int, workdir: str, tiny: bool) -> list[Op]:
    equal = (2, 3) if tiny else (16, 24, 32)
    cases = [(f, d, d) for d in equal for f in ("product", "dressed-swap", "generic", "diagonal")]
    cases += [(f, *((2, 3) if tiny else (16, 32))) for f in ("product", "generic")]
    cases += [("controlled-phase", d, d) for d in ((3,) if tiny else (16, 24))]
    ops = []
    for family, d1, d2 in cases:
        label = f"{family}:{d1}x{d2}"
        u = make_unitary(family, d1, d2, child_seed(seed, label))
        op_seed = child_seed(seed, "witness:" + label)
        ops.append(Op(
            label,
            lambda u=u, d1=d1, d2=d2, s=op_seed: classify.classify_unitary(u, d1, d2, seed=s),
            lambda form, u=u, f=family, d1=d1, d2=d2: check_form(u, f, d1, d2, form),
        ))
    return ops


# ---------------------------------------------------------------- path


def path_ops(seed: int, workdir: str, tiny: bool) -> list[Op]:
    steps = 8 if tiny else 64
    ops = []

    def add(label, make_path, probe, check):
        s = child_seed(seed, "profile:" + label)
        ops.append(Op(
            label,
            lambda: dynamics.entanglement_profile(make_path(), probe, n_steps=steps, seed=s, n_inputs=8),
            check,
        ))

    for d in ((2, 3) if tiny else (4, 8, 12, 16)):
        add(f"swap:{d}", lambda d=d, s=swap(d): dynamics.geodesic_path(s, d, d),
            np.eye(d)[0], check_swap_profile)
    d = 2 if tiny else 8
    u = make_unitary("dressed-swap", d, d, child_seed(seed, "dressed-swap"))
    add(f"dressed-swap:{d}", lambda u=u, d=d: dynamics.geodesic_path(u, d, d),
        np.eye(d)[0], check_swap_profile)
    d1, d2 = (2, 3) if tiny else (8, 12)
    for n in range(2):
        label = f"local:{d1}x{d2}:{n}"
        a = hermitian(d1, child_seed(seed, label + ":a"), np.pi / 3)
        b = hermitian(d2, child_seed(seed, label + ":b"), np.pi / 3)
        h = np.kron(a, np.eye(d2)) + np.kron(np.eye(d1), b)
        add(label, lambda h=h: dynamics.path_from_generator(h, d1, d2),
            unit_vector(d2, child_seed(seed, label + ":probe")), check_null_profile)
    return ops


# ---------------------------------------------------------------- cli


def _write_floats(fh, values: np.ndarray) -> None:
    """Comma-separated, 17 significant digits (exact round trip), row by row."""
    rows = values.reshape(values.shape[0], -1)
    np.savetxt(fh, rows[:-1], fmt="%.17g", delimiter=", ", newline=",\n")
    np.savetxt(fh, rows[-1:], fmt="%.17g", delimiter=", ", newline="")


def _write_matrix(fh, m: np.ndarray) -> None:
    """Matrix JSON in entkit's wire format, streamed row by row."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    fh.write(f'{{"rows": {m.shape[0]}, "cols": {m.shape[1]}, "re": [')
    _write_floats(fh, m.real)
    fh.write('], "im": [')
    _write_floats(fh, m.imag)
    fh.write("]}")


def write_matrix(path: str, m: np.ndarray) -> None:
    with open(path, "w") as fh:
        _write_matrix(fh, m)


def write_scheme(path: str, coupling: np.ndarray, probe_init: np.ndarray, pointer: list[np.ndarray]) -> None:
    d2 = probe_init.size
    with open(path, "w") as fh:
        fh.write(f'{{"object_dim": {coupling.shape[0] // d2}, "probe_dim": {d2}, "probe_init": ')
        _write_matrix(fh, probe_init)
        fh.write(', "coupling": ')
        _write_matrix(fh, coupling)
        fh.write(f', "pointer": {{"dim": {d2}, "outcomes": {json.dumps([str(k) for k in range(len(pointer))])}, "effects": [')
        for k, eff in enumerate(pointer):
            if k:
                fh.write(", ")
            _write_matrix(fh, eff)
        fh.write("]}}")


def _read(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _matrix(obj: dict) -> np.ndarray:
    re = np.asarray(obj["re"], dtype=np.float64)
    im = np.asarray(obj["im"], dtype=np.float64)
    return (re + 1j * im).reshape(obj["rows"], obj["cols"])


def cli_ops(seed: int, workdir: str, tiny: bool) -> list[Op]:
    big, scheme_d, small, path_d = (3, 3, 2, 2) if tiny else (24, 32, 16, 4)
    os.makedirs(workdir, exist_ok=True)
    f = {name: os.path.join(workdir, name) for name in (
        "gen.json", "product.json", "haar.json", "haar-scheme.json", "state-big.json",
        "swap-scheme.json", "state-small.json", "dressed.json", "phi0.json", "swap.json",
        "out-product.json", "out-haar.json", "out-haar-scheme.json", "out-swap-scheme.json",
        "out-slice.json", "out-path.json",
    )}
    product = make_unitary("product", big, big, child_seed(seed, "cli:product"))
    write_matrix(f["product.json"], product)
    write_matrix(f["haar.json"], make_unitary("generic", big, big, child_seed(seed, "cli:haar")))
    basis = [np.outer(e, e) for e in np.eye(scheme_d)]
    write_scheme(f["haar-scheme.json"], make_unitary("generic", scheme_d, scheme_d, child_seed(seed, "cli:coupling")),
                 np.eye(scheme_d)[0], basis)
    write_matrix(f["state-big.json"], unit_vector(scheme_d, child_seed(seed, "cli:state-big")))
    small_pointer = [np.outer(e, e) for e in np.eye(small)]
    write_scheme(f["swap-scheme.json"], swap(small), unit_vector(small, child_seed(seed, "cli:phi0-small")),
                 small_pointer)
    state_small = unit_vector(small, child_seed(seed, "cli:state-small"))
    write_matrix(f["state-small.json"], state_small)
    write_matrix(f["dressed.json"], make_unitary("dressed-swap", small, small, child_seed(seed, "cli:dressed")))
    write_matrix(f["phi0.json"], unit_vector(small, child_seed(seed, "cli:phi0")))
    write_matrix(f["swap.json"], swap(path_d))

    def run(*argv):
        return lambda: cli.main([str(a) for a in argv])

    def check_gen(code):
        if code != 0:
            return f"exit code {code}"
        n = big * big
        with open(f["gen.json"], "rb") as fh:
            head = fh.read(64)
            fh.seek(-64, os.SEEK_END)
            tail = fh.read()
        if f'"cols": {n},'.encode() not in head or f'"rows": {n}'.encode() not in tail:
            return "generated matrix has the wrong shape"
        return None

    def check_classify(out, verdict, u=None):
        def check(code):
            if code != 0:
                return f"exit code {code}"
            report = _read(out)
            if report["verdict"] != verdict:
                return f"verdict {report['verdict']}, expected {verdict}"
            if verdict == "product":
                factors = report["factors"]
                err = np.linalg.norm(u - np.kron(_matrix(factors["v"]), _matrix(factors["w"])))
                if err > RECONSTRUCTION_BOUND:
                    return f"reconstruction error {err:.3e}"
            elif report["witness"]["second_schmidt_coeff"] <= 10 * TOL:
                return "witness below 10*tol"
            return None
        return check

    def check_measure(out, n_outcomes, pointer=None, phi=None):
        def check(code):
            if code != 0:
                return f"exit code {code}"
            report = _read(out)
            probs = np.asarray(report["probabilities"])
            if len(probs) != n_outcomes or abs(probs.sum() - 1.0) > 1e-9:
                return "outcome probabilities do not form a distribution"
            if pointer is None:
                if report["trivial_observable"]:
                    return "Haar coupling measured a trivial observable"
                return None
            induced = [_matrix(e) for e in report["measured_observable"]["effects"]]
            if max(np.linalg.norm(a - b) for a, b in zip(induced, pointer)) > 1e-10:
                return "swap scheme did not copy the pointer"
            direct = [float(np.vdot(phi, e @ phi).real) for e in pointer]
            if np.abs(probs - direct).max() > 1e-10:
                return "swap scheme probabilities differ from the pointer's"
            return None
        return check

    def check_slice(code):
        if code != 0:
            return f"exit code {code}"
        form = _read(f["out-slice.json"])["form"]
        return None if form == "transfer_to_probe" else f"slice form {form}"

    def check_path(code):
        if code != 0:
            return f"exit code {code}"
        report = _read(f["out-path.json"])
        if not report["interior_entangling_witnessed"] or report["max_entropy_bits"] <= 0.5:
            return "path report shows no swap obstruction"
        with open(f["out-path.json"][: -len(".json")] + ".csv") as fh:
            if sum(1 for _ in fh) != 64 + 2:
                return "path CSV has the wrong number of rows"
        return None

    return [
        Op(f"gen-haar:{big}", run("gen", "haar", "--dims", big, big, "--seed", child_seed(seed, "cli:gen") % 2**31,
                                  "--out", f["gen.json"]), check_gen),
        Op(f"classify-product:{big}", run("classify", f["product.json"], "--dims", big, big,
                                          "--out", f["out-product.json"]),
           check_classify(f["out-product.json"], "product", product)),
        Op(f"classify-haar:{big}", run("classify", f["haar.json"], "--dims", big, big,
                                       "--out", f["out-haar.json"]),
           check_classify(f["out-haar.json"], "entangling")),
        Op(f"measure-haar:{scheme_d}", run("measure", "--scheme", f["haar-scheme.json"], "--state", f["state-big.json"],
                                           "--out", f["out-haar-scheme.json"]),
           check_measure(f["out-haar-scheme.json"], scheme_d)),
        Op(f"measure-swap:{small}", run("measure", "--scheme", f["swap-scheme.json"], "--state", f["state-small.json"],
                                        "--out", f["out-swap-scheme.json"]),
           check_measure(f["out-swap-scheme.json"], small, small_pointer, state_small)),
        Op(f"slice-dressed-swap:{small}", run("slice", f["dressed.json"], "--phi0", f["phi0.json"],
                                              "--dims", small, small, "--out", f["out-slice.json"]), check_slice),
        Op(f"path-swap:{path_d}", run("path", f["swap.json"], "--dims", path_d, path_d, "--steps", 64,
                                      "--out", f["out-path.json"]), check_path),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, str, bool], list[Op]]
    # verify needs two reports in a run to compare their bytes.
    min_passes: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify", verify_ops, min_passes=2),
        Workload("classify-large", classify_ops),
        Workload("path", path_ops),
        Workload("cli", cli_ops),
    )
}
