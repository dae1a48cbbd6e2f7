import multiprocessing
import sys

import numpy as np
import pytest


@pytest.fixture
def realignment_svds(monkeypatch):
    """Shapes of the 2-D SVDs run while the test runs.

    An SVD of the realignment R(U), which no verdict needs, is 2-D. The witness
    search (each grid row's image 0 included) and the batched entropies run
    stacked 3-D SVDs, which are not counted, and np.linalg.norm(x, 2) does
    not call the patched attribute, so classify_unitary and
    entanglement_profile run 2-D SVDs only for a realignment.
    """
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        if a.ndim == 2:
            calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.fixture
def unitarity_checks(monkeypatch):
    """Shapes of the matrices given to linalg.unitarity_defect while the
    test runs, one entry per call, in every entkit module that imports it."""
    import entkit.linalg

    calls = []
    defect = entkit.linalg.unitarity_defect

    def counted(u):
        calls.append(np.shape(u))
        return defect(u)

    for name, module in list(sys.modules.items()):
        if name.startswith("entkit") and getattr(module, "unitarity_defect", None) is defect:
            monkeypatch.setattr(module, "unitarity_defect", counted)
    return calls


@pytest.fixture(scope="session")
def pooled_report():
    """canonical_json of verify.run_all(seed) in two forked workers, as a
    function of the seed. Each seed's report is built once per session; no
    worker is left afterwards."""
    from entkit import verify
    from entkit.serialize import canonical_json

    reports = {}

    def report(seed: int) -> str:
        if seed not in reports:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verify, "_available_cpus", lambda: 2)
                reports[seed] = canonical_json(verify.run_all(seed))
            assert multiprocessing.active_children() == []
        return reports[seed]

    return report
