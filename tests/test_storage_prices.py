"""Every storage price, pinned to the last bit.

One 64 KiB write and one 64 KiB read of the same file, on a shared path
(``out/f``) and on a node-local-eligible path (``spill/f``), for every
spec in :data:`repro.storage.BACKENDS` built by ``make_backend`` on
``COMET`` and ``MIRA`` with 1 and 8 sharers.  The values are the exact
floats a costed access adds to the caller's clock, so any change to how
a backend prices an access - a reordered division, a dropped factor, a
model picked for the wrong path - shows here before it shows as drift
in a figure.
"""

import pytest

from repro.mpi import COMET, MIRA
from repro.storage import BACKENDS, make_backend

NBYTES = 64 * 1024

#: (spec, platform, sharers) -> (write out/f, read out/f,
#: write spill/f, read spill/f), virtual seconds.
PRICES = {
    ("pfs", "comet", 1): (0.67208864, 0.056924053333333335,
                          0.67208864, 0.056924053333333335),
    ("pfs", "comet", 8): (5.3697091200000004, 0.4483924266666667,
                          5.3697091200000004, 0.4483924266666667),
    ("pfs", "mira", 1): (1.7905697066666666, 0.4483924266666667,
                         1.7905697066666666, 0.4483924266666667),
    ("pfs", "mira", 8): (14.317557653333333, 3.5801394133333333,
                         14.317557653333333, 3.5801394133333333),
    ("kv", "comet", 1): (0.007115506666666667, 0.007115506666666667,
                         0.007115506666666667, 0.007115506666666667),
    ("kv", "comet", 8): (0.007115506666666667, 0.007115506666666667,
                         0.007115506666666667, 0.007115506666666667),
    ("kv", "mira", 1): (0.0036202533333333335, 0.0036202533333333335,
                        0.0036202533333333335, 0.0036202533333333335),
    ("kv", "mira", 8): (0.0036202533333333335, 0.0036202533333333335,
                        0.0036202533333333335, 0.0036202533333333335),
    ("extsort", "comet", 1): (0.67208864, 0.056924053333333335,
                              0.014231013333333334, 0.014231013333333334),
    ("extsort", "comet", 8): (0.67208864, 0.056924053333333335,
                              0.014231013333333334, 0.014231013333333334),
    ("extsort", "mira", 1): (1.7905697066666666, 0.4483924266666667,
                             0.11209810666666667, 0.11209810666666667),
    ("extsort", "mira", 8): (1.7905697066666666, 0.4483924266666667,
                             0.11209810666666667, 0.11209810666666667),
}


class _Clock:
    rank = 0

    def __init__(self):
        self.time = 0.0

    def advance(self, seconds):
        self.time += seconds


def _prices(backend):
    prices = []
    for path in ("out/f", "spill/f"):
        clock = _Clock()
        backend.write(clock, path, bytes(NBYTES))
        prices.append(clock.time)
        clock = _Clock()
        assert len(backend.read(clock, path)) == NBYTES
        prices.append(clock.time)
    return tuple(prices)


def test_every_spec_is_pinned():
    assert {spec for spec, _, _ in PRICES} == set(BACKENDS)


@pytest.mark.parametrize("sharers", [1, 8])
@pytest.mark.parametrize("platform", [COMET, MIRA], ids=["comet", "mira"])
@pytest.mark.parametrize("spec", BACKENDS)
def test_price_is_bit_exact(spec, platform, sharers):
    backend = make_backend(spec, platform=platform, sharers=sharers)
    assert backend.name == spec
    assert _prices(backend) == PRICES[spec, platform.name, sharers]


@pytest.mark.parametrize("spec", BACKENDS)
def test_no_platform_is_free(spec):
    backend = make_backend(spec)
    assert backend.name == spec
    assert _prices(backend) == (0.0, 0.0, 0.0, 0.0)
