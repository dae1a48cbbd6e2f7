import numpy as np
import pytest


@pytest.fixture
def realignment_svds(monkeypatch):
    """Shapes of the 2-D SVDs run while the test runs.

    Realignment SVDs are 2-D; the witness engine and the batched entropies
    run stacked 3-D SVDs, which are not counted.
    """
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        if a.ndim == 2:
            calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls
