import pytest

from blab.verify import claims_suite, gradient_suite, oracle_suite


def test_gradient_suite_small():
    results, failing = gradient_suite(pairs=20)
    assert failing is None
    assert all(ok for _, ok, _ in results)


def test_claims_suite_small():
    results, failing = claims_suite(instances=50, ratio_samples=2000)
    assert failing is None
    assert all(ok for _, ok, _ in results)
    names = [name for name, _, _ in results]
    assert any("counterexample" in n for n in names)


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND on the 1-net oracle suite: the exact nearest point of net 0 sample 57 "
    "lies at 164.6 deg, between the fan directions 163.125 and 168.75 deg, so the engine "
    "reports 2.083637 against the exact 2.010765 (3.6% over the 2% bound)"))
def test_oracle_suite_one_net_seed_3100471766():
    results, failing = oracle_suite(nets=1, seed=3100471766)
    assert results[0][1], failing
