"""Shared fixtures and the acceptance-summary terminal hook."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from polaron_effmass.config import load_config
from polaron_effmass.dispersion import FiberCache
from polaron_effmass.operators import FiberTemplate

# (index, label, passed, detail) rows registered by tests/test_acceptance.py
_ACCEPTANCE_ROWS = []


@pytest.fixture(scope="session")
def acceptance_recorder():
    def record(index: int, label: str, passed, detail: str = ""):
        _ACCEPTANCE_ROWS.append((int(index), label, bool(passed), detail))
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_ROWS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for idx, label, ok, detail in sorted(_ACCEPTANCE_ROWS):
        status = "PASS" if ok else "FAIL"
        line = f"criterion {idx:2d} {status}: {label}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def toy_cfg():
    return load_config("toy")


@pytest.fixture(scope="session")
def toy_template(toy_cfg):
    return FiberTemplate(toy_cfg.spec)


@pytest.fixture(scope="session")
def toy_cache(toy_template):
    return FiberCache(toy_template)


@pytest.fixture(scope="session")
def batch_templates(toy_template):
    """toy, and two truncations of the small model (fiber dims 28, 455, 91)."""
    small = load_config("small").spec
    return {"toy": toy_template, "small": FiberTemplate(small),
            "small n_max-1": FiberTemplate(replace(small,
                                                   n_max=small.n_max - 1))}


@pytest.fixture(scope="session")
def davidson_template():
    """The smallest fiber of the converge workload above the direct pair
    route's limit: the small model at uv_cutoff 1.5 and n_max 4, dim 210."""
    small = load_config("small").spec
    return FiberTemplate(replace(small, uv_cutoff=1.5, n_max=4))


@pytest.fixture(scope="session")
def unfold():
    """E y, the grid-major vector on all 2 n_q - 1 nodes of a fold's vector
    y: node -q_j carries S of node q_j's row, and both carry it over
    sqrt(2).  The package reports folded vectors only."""
    def full(op, y):
        X = op.to_rows(y)
        X[1:] *= math.sqrt(0.5)
        return np.concatenate([X[:0:-1, op.reflection], X]).ravel()
    return full


@pytest.fixture(scope="session")
def fiber_matrix():
    """The fiber of a template at one total momentum, as a dense matrix."""
    def matrix(template, P):
        return (template.interaction.toarray()
                + np.diag(template.operator([P]).diag[0]))
    return matrix


@pytest.fixture(scope="session")
def tight_tail_fraction():
    """fourier_tail_fraction from adaptive quadrature at a tight tolerance."""
    def fraction(potential, q_cut):
        absf = lambda q: abs(float(potential.fourier(np.asarray([q]))[0]))
        head, _ = quad(absf, 0.0, q_cut, epsabs=0.0, epsrel=1e-13, limit=500)
        tail, _ = quad(absf, q_cut, np.inf, epsabs=0.0, epsrel=1e-13, limit=500)
        return tail / (head + tail)
    return fraction


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
