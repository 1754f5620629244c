import random

import pytest

from spinduct.zoo import ZOO_PAIRS, _coord_bound, random_torus_element, zoo_problem


def _randint_draw(problem, rng, max_support=12, max_coeff=9):
    """random_torus_element's weights and coefficients as drawn through
    rng.randint, kept as the reference for its draws; every zoo twist [rho]
    is 0, so they are the element's keys."""
    rank = problem.datum.rank
    bound = _coord_bound(rank)
    coeffs = {}
    for _ in range(rng.randint(1, max_support)):
        key = tuple(rng.randint(-bound, bound) for _ in range(rank))
        c = rng.randint(1, max_coeff) * rng.choice((1, -1))
        coeffs[key] = coeffs.get(key, 0) + c
    return {k: c for k, c in coeffs.items() if c}


def test_random_torus_element_draws_as_randint():
    """Seeds 0-4 on every zoo group, at the supports check_appendix_c and the
    default use: the same terms in the same order, and the generator left
    in the same state."""
    for g, h in dict(ZOO_PAIRS).items():
        p = zoo_problem(g, h)
        twist = p.datum.rho.residue_mod_one()
        for seed in range(5):
            for max_support in (12, 6, 4):
                ours, ref = random.Random(seed), random.Random(seed)
                for _ in range(10):
                    a = random_torus_element(p, ours, twist=twist, max_support=max_support)
                    expect = _randint_draw(p, ref, max_support=max_support)
                    assert list(a.coeffs.items()) == list(expect.items()), (g, seed)
                    assert a.shift == twist
                assert ours.getstate() == ref.getstate(), (g, seed)


def test_random_dominant_weight_lets_other_errors_through(monkeypatch):
    """The sampler skips only the weights the dimension formula refuses
    (NotDominant); any other error of the formula propagates."""
    import spinduct.zoo as zoo

    def broken(scope, lam):
        raise ZeroDivisionError("broken dimension formula")

    monkeypatch.setattr(zoo, "_weight_dimension", broken)
    with pytest.raises(ZeroDivisionError):
        zoo.random_dominant_weight(zoo_problem("A2", "t").datum, random.Random(0))
