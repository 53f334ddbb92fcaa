"""Shared fixtures: a two-mode reference system and a scalar one-mode system.

The two-mode system is the package's standard workout,
`perfbench.workloads.reference_system`: three states, one input, one
output, equal mode probabilities, uniform input on [-1, 1] (Q_u = 1/3) and
innovation variance 1.125 per mode.  Its minimality under the bundled
selections is verified in the acceptance suite.
"""
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from slsid import EMPTY_WORD, InnovationModel, Selection

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import reference_system  # noqa: E402  (needs the repo root)


@pytest.fixture(scope="session")
def two_mode():
    model, sel, sel_bar = reference_system()
    return SimpleNamespace(model=model, sel=sel, sel_bar=sel_bar, p=model.p, q_u=model.Q_u)


@pytest.fixture(scope="session")
def two_mode_cov(two_mode):
    from slsid import exact_covariances

    return exact_covariances(two_mode.model, 6)


@pytest.fixture(scope="session")
def scalar():
    # one mode, one state: every covariance is a closed-form geometric
    # sequence, which the tests recompute by hand
    a, b, k, c, d = 0.5, 1.2, 0.3, 2.0, 0.7
    q_v, q_u = 0.9, 0.4
    model = InnovationModel.from_parts(
        (np.array([[a]]),), (np.array([[b]]),), (np.array([[k]]),),
        np.array([[c]]), np.array([[d]]), (1.0,),
        np.array([[q_u]]), (np.array([[q_v]]),))
    sel = Selection(((EMPTY_WORD, 1),), ((1, EMPTY_WORD, 1),),
                    n_modes=1, n_y=1, n_cols=2)
    sel_bar = Selection(((EMPTY_WORD, 1),), ((1, EMPTY_WORD, 1),),
                        n_modes=1, n_y=1, n_cols=1)
    return SimpleNamespace(a=a, b=b, k=k, c=c, d=d, q_v=q_v, q_u=q_u,
                           model=model, sel=sel, sel_bar=sel_bar)


@pytest.fixture
def ms_builds(monkeypatch):
    """One (A, radius) entry per build of a mean-square operator: every
    call of model.mean_square_operator, from slsid.model or slsid.realize."""
    import slsid.model
    import slsid.realize

    builds = []
    build = slsid.model.mean_square_operator

    def counting(A, w):
        op, rho = build(A, w)
        builds.append((A, rho))
        return op, rho
    for module in (slsid.model, slsid.realize):
        monkeypatch.setattr(module, "mean_square_operator", counting)
    return builds
