"""The count rule and the finiteness rule at every library entry point that
takes a count or a real number: a bad value is a BadParamsError, never a
TypeError, an OverflowError or a silently accepted bool."""

import numpy as np
import pytest

import graphcalc as gc

C6 = gc.generate("cycle", n=6)

# entry point -> (a call taking the count, the integers it refuses); a numpy
# integer one above the first refused integer is accepted
_COUNTS = {
    "SolverConfig.max_iters": (lambda c: gc.SolverConfig(max_iters=c), (-1,)),
    "liouville_search.restarts": (lambda c: gc.liouville_search(C6, 2.0, 1.0, restarts=c, steps=1), (0,)),
    "liouville_search.steps": (lambda c: gc.liouville_search(C6, 2.0, 1.0, restarts=2, steps=c), (0,)),
    "spectrum_smallest.k": (lambda c: gc.spectrum_smallest(C6, c), (0, 7)),
    "EvolutionConfig.steps": (lambda c: gc.EvolutionConfig(dt=0.1, steps=c, scheme="heat_implicit"), (0,)),
    "EvolutionConfig.stride": (
        lambda c: gc.EvolutionConfig(dt=0.1, steps=4, scheme="heat_implicit", stride=c), (0,)
    ),
    "generate.n": (lambda c: gc.generate("path", n=c), (1,)),
    "generate.cycle_n": (lambda c: gc.generate("cycle", n=c), (2,)),
    "generate.rows": (lambda c: gc.generate("grid2d", rows=c, cols=3), (1,)),
    "generate.cols": (lambda c: gc.generate("grid2d", rows=3, cols=c), (1,)),
}


@pytest.mark.parametrize("entry", list(_COUNTS))
def test_every_count_argument_takes_the_count_rule(entry):
    call, refused = _COUNTS[entry]
    for bad in (2.5, float("nan"), True, np.True_, "3", None, *refused):
        with pytest.raises(gc.BadParamsError, match=r" must be an integer (>= |in \[)"):
            call(bad)
    call(np.int64(refused[0] + 1))


def test_count_message_names_its_bounds():
    with pytest.raises(gc.BadParamsError, match=r"^k must be an integer in \[1, 6\], got 7$"):
        gc.spectrum_smallest(C6, 7)
    with pytest.raises(gc.BadParamsError, match=r"^n must be an integer >= 3, got 2$"):
        gc.generate("cycle", n=2)
    assert gc.generate("complete", n=np.int64(4)).n_vertices == 4


# entry point -> a call taking the real number; each accepts a numpy integer 1
_REALS = {
    "check_kato1.tol": lambda t: gc.check_kato1(C6, gc.VertexFunction.constant(C6, 1.0), t),
    "SolverConfig.tol": lambda t: gc.SolverConfig(tol=t),
    "SolverConfig.damping": lambda t: gc.SolverConfig(damping=t),
    "liouville_search.p": lambda t: gc.liouville_search(C6, t, 1.0, restarts=2, steps=1),
    "EvolutionConfig.dt": lambda t: gc.EvolutionConfig(dt=t, steps=1, scheme="heat_implicit"),
    "generate.weight": lambda t: gc.generate("path", n=3, weight=t),
}


@pytest.mark.parametrize("entry", list(_REALS))
def test_every_real_argument_refuses_a_non_number(entry):
    for bad in ("x", None, 1j, True):
        with pytest.raises(gc.BadParamsError, match=r" must be a real number, got "):
            _REALS[entry](bad)
    # an integer beyond the double range is not finite
    with pytest.raises(gc.BadParamsError, match=r" must be (positive|nonnegative) and finite, got 1000"):
        _REALS[entry](10**400)
    _REALS[entry](np.int64(1))


def test_damping_above_one_is_refused():
    with pytest.raises(gc.BadParamsError, match=r"^damping must be at most 1, got 1.5$"):
        gc.SolverConfig(damping=1.5)
    assert gc.SolverConfig(damping=1.0).damping == 1.0
