"""The count rule and the finiteness rule at every library entry point that
takes a count or a real number: a bad value is a BadParamsError, never a
TypeError, an OverflowError or a silently accepted bool."""

import sys

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


def test_schrodinger_step_dt_takes_the_finiteness_rule():
    u = gc.VertexFunction.constant(C6, 1.0)
    for bad in ("x", None, 1j, True):
        with pytest.raises(gc.BadParamsError, match=r"^dt must be a real number, got "):
            gc.schrodinger_step(C6, u, bad)
    for bad in (0, 0.0, -0.0, float("nan"), float("-inf"), -(10**400)):
        with pytest.raises(gc.BadParamsError, match=r"^dt must be nonzero and finite, got "):
            gc.schrodinger_step(C6, u, bad)
    # a negative dt inverts the step
    assert gc.schrodinger_step(C6, gc.schrodinger_step(C6, u, np.int64(-1)), 1.0).values == pytest.approx(1.0)


def test_gnp_p_takes_the_finiteness_rule():
    for bad in ("x", None, 1j, True):
        with pytest.raises(gc.BadParamsError, match=r"^p must be a real number, got "):
            gc.generate("gnp", n=5, p=bad)
    for bad in (0, -0.5, float("nan"), float("inf")):
        with pytest.raises(gc.BadParamsError, match=r"^p must be positive and finite, got "):
            gc.generate("gnp", n=5, p=bad)
    with pytest.raises(gc.BadParamsError, match=r"^p must be at most 1, got 1.5$"):
        gc.generate("gnp", n=5, p=1.5)
    assert gc.generate("gnp", n=5, p=np.int64(1)).n_edges == 10


_HUGE = 10**5000  # beyond the 4,300 digits Python prints by default


def test_an_integer_too_long_to_print_is_worded_by_its_digits():
    u = gc.VertexFunction.constant(C6, 1.0)
    cases = [
        (lambda: gc.SolverConfig(tol=_HUGE), "tol must be positive and finite"),
        (lambda: gc.generate("path", n=3, weight=_HUGE), "uniform edge weight must be positive and finite"),
        (lambda: gc.generate("gnp", n=5, p=_HUGE), "p must be positive and finite"),
        (lambda: gc.liouville_search(C6, _HUGE, 1.0), "p must be positive and finite"),
        (lambda: gc.generate("path", n=_HUGE), rf"n must be an integer in \[2, {sys.maxsize}\]"),
        (lambda: gc.spectrum_smallest(C6, _HUGE), r"k must be an integer in \[1, 6\]"),
        (lambda: gc.liouville_search(C6, 2.0, 1.0, restarts=_HUGE), rf"restarts must be an integer in \[1, {sys.maxsize}\]"),
    ]
    for call, rule in cases:
        with pytest.raises(gc.BadParamsError, match=rf"^{rule}, got an integer of 5001 digits$"):
            call()
    with pytest.raises(gc.BadParamsError, match=r"^dt must be nonzero and finite, got a negative integer of 5001 digits$"):
        gc.schrodinger_step(C6, u, -_HUGE)
    # the count is exact on either side of a power of ten
    for value, digits in ((_HUGE - 1, 5000), (_HUGE + 1, 5001), (10**4300, 4301)):
        with pytest.raises(gc.BadParamsError, match=rf"got an integer of {digits} digits$"):
            gc.SolverConfig(tol=value)


def test_no_count_above_sys_maxsize():
    with pytest.raises(gc.BadParamsError, match=rf"^steps must be an integer in \[1, {sys.maxsize}\], got {sys.maxsize + 1}$"):
        gc.EvolutionConfig(dt=0.1, steps=sys.maxsize + 1, scheme="heat_implicit")
    assert gc.EvolutionConfig(dt=0.1, steps=sys.maxsize, scheme="heat_implicit").steps == sys.maxsize
