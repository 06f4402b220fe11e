import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def gram_steps(monkeypatch):
    """Every RowGramSteps built while the test runs, in order. A test meant to
    run the row Gram path asserts that one was built, so that no change of the
    path rule moves it onto the column path unseen."""
    from mcrecon.solver import RowGramSteps

    built = []
    init = RowGramSteps.__init__
    monkeypatch.setattr(RowGramSteps, "__init__",
                        lambda dc, *a, **k: built.append(dc) or init(dc, *a, **k))
    return built
