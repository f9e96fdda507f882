"""The stream identities ``synth.generate`` relies on, one test each.

The generator makes some draws in a cheaper form than the straightforward
call and relies on numpy drawing the same bits either way (the ``synth``
module docstring lists them). Each test compares the values and the final
``bit_generator.state`` of the two forms, so a numpy release that breaks
one fails the test that names it, not only the byte-level reference.
"""

import itertools

import numpy as np
import pytest

from polab.marketdata.grid import BARS_PER_DAY, bar_start_ms
from polab.synth import _ints

SEEDS = (0, 11, 2**32 - 1)
SIZES = range(7)
#: the first and last bar of each session
BAR_STARTS = [float(bar_start_ms(b)) for b in (1, 120, 121, BARS_PER_DAY)]


def pair(seed, primed):
    """Two generators in one state. A primed pair has drawn one bounded
    32-bit integer, so numpy holds the other half of a 64-bit draw."""
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    if primed:
        for rng in rngs:
            rng.integers(0, 5)
    return rngs


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("lo", BAR_STARTS)
def test_uniform_over_a_bar_is_its_start_plus_scaled_random(seed, lo):
    for n in SIZES:
        a, b = pair(seed, primed=False)
        times = a.uniform(lo, lo + 60_000.0, n)
        draws = b.random(n)
        same_bits(times, lo + 60_000.0 * draws)
        # the time never falls as the draw grows, so sorted draws give sorted times
        same_bits(np.sort(times), lo + 60_000.0 * np.sort(draws))
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
# p >= 1/3 takes numpy's search branch, p below it the inversion branch
@pytest.mark.parametrize("mean_fills", [1.3, 2.5, 4.0])
def test_one_geometric_call_split_in_two_is_the_two_per_side_calls(seed, mean_fills):
    p = 1.0 / mean_fills
    for nb, ns in itertools.product(SIZES, SIZES):
        a, b = pair(seed, primed=True)
        fb, fs = a.geometric(p, nb), a.geometric(p, ns)
        both = b.geometric(p, nb + ns)
        same_bits(fb, both[:nb])
        same_bits(fs, both[nb:])
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("primed", [False, True])
def test_integers_with_one_choice_draw_nothing(seed, primed):
    for n in SIZES:
        a, b = pair(seed, primed)
        same_bits(a.integers(0, 1, n), np.zeros(n, dtype=np.int64))
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("primed", [False, True])
def test_shuffle_of_at_most_one_slot_draws_nothing(seed, primed):
    for n in (0, 1):
        a, b = pair(seed, primed)
        side = np.arange(5, 5 + n)
        a.shuffle(side)
        same_bits(side, np.arange(5, 5 + n))
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("primed", [False, True])
# a deficit's participant among 2 or 5, and a trade's volume
@pytest.mark.parametrize("low, high", [(0, 2), (0, 5), (100, 10_000)])
def test_k_scalar_integers_calls_are_one_sized_call(seed, primed, low, high):
    for k in SIZES:
        a, b = pair(seed, primed)
        scalars = [a.integers(low, high) for _ in range(k)]
        same_bits(np.array(scalars, dtype=np.int64), b.integers(low, high, k))
        assert a.bit_generator.state == b.bit_generator.state
        # the generator's helper takes either form by size, with the same draws
        c, d = pair(seed, primed)
        assert _ints(c, low, high, k) == d.integers(low, high, k).tolist()
        assert c.bit_generator.state == d.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("primed", [False, True])
# numpy draws by multiplication below rate 10 and by transformed rejection from it
@pytest.mark.parametrize("rate", [0.0, 0.3, 1.5, 9.99, 10.0, 11.0])
def test_poisson_with_one_rate_is_the_call_with_equal_rates(seed, primed, rate):
    for n in (0, 1, 5, BARS_PER_DAY):
        a, b = pair(seed, primed)
        same_bits(a.poisson(np.full(n, rate)), b.poisson(rate, n))
        assert a.bit_generator.state == b.bit_generator.state
