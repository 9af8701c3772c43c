"""Per-layer timings of jet arithmetic, on pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_jets.py \
        [--benchmark-json FILE]

The layers, from the bottom: ``jexp`` and ``jlog`` on a float leaf, on a
first-order jet nested in a first-order jet (the conservation residuals'
mixed seeds) and on an order-3 jet (the stress components' seeds); a
product and a quotient of two nested first-order jets; and a chain of
every elementary function through division on an order-3 jet over 576
array points, the size of the ``grid`` workload's 24 x 24 grid in
``mirrorbench``.  Only the public jet names are used, so the file runs
unchanged against earlier commits: compare commits by running it against
each commit's source.
"""

import numpy as np
import pytest

from mirrorstress.jets import (
    Jet1,
    jasinh,
    jcosh,
    jexp,
    jlog,
    jsinh,
    jsqrt,
    seed,
)

GRID_POINTS = 24 * 24
# the floor bench_render.py sets; every case here takes under a
# millisecond, so the default 1 s budget already runs far more rounds
MIN_ROUNDS = pytest.mark.benchmark(min_rounds=20)
ARGS = {
    "float": 0.7,
    "nested_jet1": Jet1(Jet1(0.7, 1.0), 0.3),
    "jet3": seed(0.7),
}


@pytest.mark.parametrize("kind", list(ARGS))
@pytest.mark.parametrize("fn", [jexp, jlog], ids=["exp", "log"])
@MIN_ROUNDS
def test_elementary(benchmark, fn, kind):
    benchmark(fn, ARGS[kind])


@pytest.mark.parametrize("op", ["mul", "div"])
@MIN_ROUNDS
def test_nested_jet1(benchmark, op):
    a = Jet1(Jet1(0.7, 1.0), 0.3)
    b = Jet1(Jet1(1.3, 0.0), 1.0)
    if op == "mul":
        benchmark(lambda: a * b)
    else:
        benchmark(lambda: a / b)


def chain(j):
    return (jlog(jexp(j) + 1.0) * jasinh(j) + jsinh(j)) \
        / (jcosh(j) * jsqrt(j * j + 1.0))


@MIN_ROUNDS
def test_jet3_chain_on_array(benchmark):
    j = seed(np.linspace(-2.0, 2.0, GRID_POINTS))
    out = benchmark(chain, j)
    assert np.all(np.isfinite(out.d3))
