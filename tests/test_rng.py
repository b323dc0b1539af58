import numpy as np
import pytest
from hypothesis import given, strategies as st

from blab.rng import derive_seed, make_rng


def test_make_rng_is_deterministic():
    a = make_rng(42).standard_normal(16)
    b = make_rng(42).standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_streams_are_independent():
    a = make_rng(42, stream=0).standard_normal(16)
    b = make_rng(42, stream=1).standard_normal(16)
    assert not np.array_equal(a, b)


def test_derive_seed_is_positional():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(1) != derive_seed(1, 0)


def test_derive_seed_accepts_full_u64_range():
    big = derive_seed(2**63 + 5, 2**64 - 1)
    assert 0 <= big < 2**64
    # derived seeds must themselves be usable as master seeds
    make_rng(big).standard_normal(1)


# numpy holds the key list [seed, stream] in float64 when seed >= 2**63, so the
# seed's low bits are lost; about half of derive_seed's seeds are that large
@pytest.mark.xfail(reason="make_rng rounds a seed >= 2**63 through float64")
def test_seeds_above_2_63_draw_different_numbers():
    assert not np.array_equal(make_rng(2**63).standard_normal(4),
                              make_rng(2**63 + 1).standard_normal(4))


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**32))
def test_derive_seed_range(master, idx):
    s = derive_seed(master, idx)
    assert 0 <= s < 2**64
