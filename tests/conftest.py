"""Shared helpers: the eight groups, seeded random rationals and
polynomials for property tests, the walk that compiled condition tests
are checked against, and the command line in a fresh interpreter.  Each
test and each test module's import run under one time limit, so a fault
that loops fails the suite instead of hanging it."""

import contextlib
import os
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

import liecodazzi
from liecodazzi.liealg import FAMILIES, branches, make_group
from liecodazzi.poly import VARS, Polynomial


# the wall seconds that one test, or the import of one test module, may
# take; the slowest test takes about 5
TEST_TIME_LIMIT_S = 60


@contextlib.contextmanager
def _time_limit():
    """Raise TimeoutError in the code running once the block has taken
    TEST_TIME_LIMIT_S, by a SIGALRM interval timer armed on entry and
    disarmed on exit (no limit where the platform has no such timer)."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"ran past the {TEST_TIME_LIMIT_S} s limit of one test")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    # one test: its set-up (module fixtures too), call and teardown
    with _time_limit():
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_make_collect_report(collector):
    # a test module builds polynomials at import, so a looping fault can
    # hang its collection; it becomes a collection error
    with _time_limit():
        yield


def all_groups():
    """The eight symbolic groups: G1..G7, with G4 once per metric sign."""
    return [make_group(f, eta=e) for f in FAMILIES for e in branches(f)]


def walk_violated(constraints, point):
    """ConstraintSet.violated as a walk over the polynomials, each tested
    with vanishes_at: the first equality that does not vanish, else the
    first inequation that does, as (polynomial, kind); None when none."""
    for p in constraints.equalities:
        if not p.vanishes_at(point):
            return p, "equality"
    for q in constraints.inequations:
        if q.vanishes_at(point):
            return q, "inequation"
    return None


def run_cli(*argv, timeout=None):
    """Run `python -m liecodazzi.cli argv` on this checkout's package,
    without LIECODAZZI_SEED; the CompletedProcess with bytes output."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(liecodazzi.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.pop("LIECODAZZI_SEED", None)
    return subprocess.run([sys.executable, "-m", "liecodazzi.cli", *argv],
                          capture_output=True, env=env, timeout=timeout, check=False)


def random_rational(rng, lo=-10, hi=10, max_den=10):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_point(rng):
    return {v: random_rational(rng) for v in VARS}


def random_poly(rng, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in VARS)
        terms[exps] = terms.get(exps, 0) + random_rational(rng)
    return Polynomial(terms)
