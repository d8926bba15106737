"""The seeded streams of peskin2d.draws.

The literal pins are the contract: they hold wherever numpy is absent or
changes its generators.  The comparisons with numpy's generators show
that the pinned streams are the ones random_decay data and verify-kernels
drew through numpy before.
"""

import math

import numpy as np
import pytest

from peskin2d.draws import PCG64, Philox

SEEDS = (0, 7, 2 ** 32 - 1, 2 ** 64 + 5, 10 ** 300)   # 10^300: 32 words, pool of 4

# the first five 64-bit Philox outputs (two blocks) and three PCG64 outputs
PINS = {
    0: ((0x0399E5B222B82FA9, 0x41FD08C1F00F3BC5, 0x78B8824162EE4D04,
         0x176747919E02739D, 0xFAA88F002A8D3596),
        (0xA30FEBCFD9C2825F, 0x4510BDF882D9D721, 0x0A7D3DA94ECDE8B8)),
    7: ((0x78046C3E44C57FAE, 0x6D17E4BDF94F8AC5, 0x5CEC5E6620741A73,
         0x3CC339CCC49E4166, 0x23842ADB3B9998C3),
        (0xA00641A9F1E54A8B, 0xE5AFCDBCAF266A95, 0xC693565F940AF962)),
    2 ** 32 - 1: ((0x6EDC0DC82682CD30, 0xBD48993E460FA028, 0x50D84B9F36020FFB,
                   0x3AEB3F27E8F210F0, 0x66BAA946E1F57D47),
                  (0x407F5FA930D8FD9F, 0x3814B22EB9684802, 0x498B7DCEE8D8DC95)),
    2 ** 64 + 5: ((0x04C642366F213F2F, 0x513EAC1A757DB57E, 0x22C1CCA369D338CD,
                   0x1A8BB4EBF1B0593E, 0xCAD90329C89E0F0C),
                  (0xBE1ED79DE3D6074E, 0x64197D17923F1721, 0xAF69FCFEDB7A76BA)),
    10 ** 300: ((0x8B1EF5CCFE1F4CBF, 0xA26ECB7D2E4F3444, 0x9610E3ABCDE99C25,
                 0x67795B43D0441288, 0xC4628EB5A754D59D),
                (0x30E3A4D3D8109668, 0x6C1152CC66E319D3, 0x9FAE2E18B84A7E30)),
}


@pytest.mark.parametrize("seed", SEEDS)
def test_philox_pins(seed):
    rng = Philox(seed)
    assert tuple(rng.next64() for _ in range(5)) == PINS[seed][0]


@pytest.mark.parametrize("seed", SEEDS)
def test_pcg64_pins(seed):
    rng = PCG64(seed)
    assert tuple(rng.next64() for _ in range(3)) == PINS[seed][1]


def test_pcg64_next32_halves_one_draw():
    # the low half first, then the high half kept from the same draw
    rng = PCG64(0)
    assert [rng.next32() for _ in range(3)] == [0xD9C2825F, 0xA30FEBCF, 0x82D9D721]


def test_uniform_scales_the_top_53_bits():
    rng = Philox(0)
    assert rng.uniform(0.0, 1.0) == (PINS[0][0][0] >> 11) / 2.0 ** 53
    assert rng.uniform(-math.pi, math.pi) == (
        -math.pi + 2.0 * math.pi * ((PINS[0][0][1] >> 11) * 2.0 ** -53))


@pytest.mark.parametrize("seed", [-1, -2 ** 70])
def test_negative_seed_rejected(seed):
    with pytest.raises(ValueError, match="non-negative"):
        Philox(seed)


@pytest.mark.parametrize("low, high", [(0, 0), (3, 1), (0, 2 ** 32)])
def test_integers_range_rejected(low, high):
    with pytest.raises(ValueError):
        PCG64(0).integers(low, high)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 513, 1025])
def test_philox_uniform_is_numpys(seed, n):
    rng = Philox(seed)
    ours = np.array([rng.uniform(0.0, 2.0 * np.pi) for _ in range(n)])
    theirs = np.random.Generator(np.random.Philox(seed)).uniform(0.0, 2.0 * np.pi, n)
    assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_max", [0, 1, 6, 12, 2 ** 31])   # 2^31: about half rejected
def test_pcg64_interleaved_draws_are_numpys(seed, n_max):
    # verify-kernels' order: an int, then two floats, so next32's kept half
    # crosses the float draws
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    for _ in range(60):
        assert ours.integers(0, n_max + 1) == int(theirs.integers(0, n_max + 1))
        assert ours.uniform(0.0, 2.0 * np.pi) == float(theirs.uniform(0.0, 2.0 * np.pi))
        assert ours.uniform(-np.pi, np.pi) == float(theirs.uniform(-np.pi, np.pi))
