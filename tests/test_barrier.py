import math
import random
from functools import cached_property

import pytest

from corpus import (
    random_colliding_scheme,
    random_masses,
    random_scheme,
    scheme_from_profiles,
    seeded_schemes,
)
from discern import checks, matroid, strategies
from discern.barrier import (
    collisions,
    identification_capacity,
    information_loss,
    quotient,
)
from discern.errors import BarrierError
from discern.scheme import Scheme


def test_collisions_s1(s1):
    report = collisions(s1)
    assert report.groups == ((0, 2),)
    assert not report.injective


def test_collisions_s2(s2):
    report = collisions(s2)
    assert report.groups == ()
    assert report.injective


def test_single_class_no_attributes():
    scheme = scheme_from_profiles([()])
    assert collisions(scheme).injective
    assert identification_capacity(scheme).capacity_bits == 0.0


def test_capacity_values(s1, s2):
    assert identification_capacity(s2).capacity_bits == 2.0
    assert identification_capacity(s1).capacity_bits == 0.0


def test_quotient(s1, s2):
    assert quotient(s1) == ((0, 2), (1,))
    assert quotient(s2) == ((0,), (1,), (2,), (3,))
    flat = scheme_from_profiles([(), (), ()])
    assert quotient(flat) == ((0, 1, 2),)


def test_information_loss_identical_pair():
    scheme = scheme_from_profiles([(1, 0), (1, 0)])
    assert information_loss(scheme) == pytest.approx(1.0, abs=1e-12)


def test_information_loss_injective(s2):
    assert information_loss(s2) == pytest.approx(0.0, abs=1e-12)


def test_information_loss_s1(s1):
    # Hand derivation: H(C) = log2 3; the two block masses are 2/3 and 1/3.
    expected = math.log2(3) - (2 / 3 * math.log2(3 / 2) + 1 / 3 * math.log2(3))
    assert information_loss(s1) == pytest.approx(expected, abs=1e-12)
    assert information_loss(s1) == pytest.approx(2 / 3, abs=1e-9)


def test_information_loss_ignores_zero_mass_collisions():
    scheme = scheme_from_profiles([(1, 0), (0, 1), (1, 0)], masses=(0.5, 0.5, 0.0))
    assert information_loss(scheme) == pytest.approx(0.0, abs=1e-12)


def test_loss_positive_iff_masses_collide():
    rng = random.Random(42)
    for _ in range(50):
        k = rng.randint(2, 7)
        n = rng.randint(1, 5)
        scheme = random_scheme(rng, k, n, with_masses=True)
        loss = information_loss(scheme)
        if collisions(scheme).injective:
            assert abs(loss) <= 1e-12
        else:
            assert loss > 1e-12


def test_capacity_dichotomy():
    rng = random.Random(43)
    for _ in range(50):
        k = rng.randint(2, 7)
        scheme = random_scheme(rng, k, rng.randint(1, 5))
        result = identification_capacity(scheme)
        assert (result.capacity_bits > 0) == result.injective
        if result.injective:
            assert result.capacity_bits == math.log2(scheme.k)


def test_colliding_generator_always_collides():
    rng = random.Random(44)
    for _ in range(30):
        scheme = random_colliding_scheme(rng, rng.randint(2, 7), rng.randint(1, 5))
        assert not collisions(scheme).injective


def _loss_by_profile_dict(scheme) -> float:
    """Reference: H(C) minus the entropy of masses summed per profile in a dict."""

    def entropy(masses) -> float:
        return -sum(m * math.log2(m) for m in masses if m > 0)

    profile_mass: dict[int, float] = {}
    for c, key in enumerate(scheme.profile_ints):
        profile_mass[key] = profile_mass.get(key, 0.0) + scheme.masses[c]
    return entropy(scheme.masses) - entropy(profile_mass.values())


def test_information_loss_equals_the_profile_dict_formula():
    schemes = list(seeded_schemes(45, 300, with_masses=True))
    # Zero masses, colliding and not, next to positive ones.
    rng = random.Random(46)
    for _ in range(100):
        k, n = rng.randint(2, 10), rng.randint(0, 3)
        weights = list(random_masses(rng, k))
        for c in rng.sample(range(k), rng.randint(1, k - 1)):
            weights[c] = 0.0
        masses = [w / sum(weights) for w in weights]
        profiles = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(k)]
        schemes.append(scheme_from_profiles(profiles, masses))
    for scheme in schemes:
        assert information_loss(scheme) == _loss_by_profile_dict(scheme)


def test_quotient_blocks_are_ascending_and_ordered_by_least_member():
    for scheme in seeded_schemes(47, 300):
        blocks = quotient(scheme)
        assert sorted(c for block in blocks for c in block) == list(range(scheme.k))
        assert all(list(block) == sorted(block) for block in blocks)
        assert [block[0] for block in blocks] == sorted(block[0] for block in blocks)
        for block in blocks:
            assert len({scheme.profile_ints[c] for c in block}) == 1
        assert len({scheme.profile_ints[block[0]] for block in blocks}) == len(blocks)


def test_quotient_is_built_once_per_scheme(monkeypatch):
    built = []
    build = Scheme.quotient.func

    def counting(self):
        built.append(self)
        return build(self)

    prop = cached_property(counting)
    prop.__set_name__(Scheme, "quotient")
    monkeypatch.setattr(Scheme, "quotient", prop)
    colliding = scheme_from_profiles([(0, 1), (1, 0), (0, 1), (1, 1)])
    injective = scheme_from_profiles([(0, 1), (1, 0), (0, 0), (1, 1)])
    for scheme in (colliding, injective):
        assert quotient(scheme) is quotient(scheme)
        collisions(scheme)
        identification_capacity(scheme)
        information_loss(scheme)
        strategies.identify_all(scheme, strategies.StrategyDescriptor.exhaustive(), range(scheme.k))
        strategies.hybrid_tag_plan(scheme, 1)
        checks.check_scheme(scheme)
    with pytest.raises(BarrierError):
        matroid.distinguishing_dimension(colliding)
    matroid.distinguishing_dimension(injective)
    matroid.enumerate_minimal_distinguishing(injective)
    assert built == [colliding, injective]
