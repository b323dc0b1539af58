from blab.verify import claims_suite, gradient_suite


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
