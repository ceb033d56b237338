"""Frozen coefficients of the polynomial sampler.

The golden configs draw at most 35 coefficients, all inside one batch of
generator words. These cases cross batches and the edges of the rejection
step: at q = 2 no word is rejected (2^64 is a multiple of 2), q = 1048573
is the largest prime the field allows, and t = 40 at q = 61 draws 12 341
coefficients. The polynomial is caught where a Monte Carlo trial samples it,
before its zero set is computed, so the pin does not depend on how the
field or the seed is passed to the sampler.
"""

import hashlib
import math

import pytest

from eil import cli

FROZEN = {
    (2, 3, 0): "60e2b806923e8a0750afcb199fffa1eddbcacb5a783b06de266dcfaa181766d6",
    (1048573, 5, 7): "fe307d1e525d8d098dec74506521241de42c7591bf90d747621313ea50b9f07e",
    (61, 40, 3): "ae3efe14b52f144998023be203e557e46f2f9239d57126dc8104a3c6813fec93",
}


class Drawn(Exception):
    """Carries the sampled polynomial out of the trial."""


@pytest.mark.parametrize("q,t,seed", sorted(FROZEN))
def test_sampled_coefficients_are_frozen(q, t, seed, monkeypatch):
    real = cli.sample_poly

    def capture(*args):
        raise Drawn(real(*args))

    monkeypatch.setattr(cli, "sample_poly", capture)
    with pytest.raises(Drawn) as caught:
        cli._montecarlo_trial((q, t, seed, 0))
    f = caught.value.args[0]
    assert (f.q, f.t) == (q, t)
    assert len(f.coeffs) == math.comb(t + 3, 3)
    assert all(0 <= c < q for c in f.coeffs)
    digest = hashlib.sha256(",".join(map(str, f.coeffs)).encode()).hexdigest()
    assert digest == FROZEN[(q, t, seed)]
