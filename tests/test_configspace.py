from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossrep import (
    ConfigError,
    HypothesisSet,
    SizeLimitError,
    config_from_string,
    config_to_string,
    enumerate_configurations,
    is_null_member,
    no_replicability_size,
    null_subset,
    null_truth_mask,
)
from crossrep.configspace import HypothesisKind
from helpers import NA, NR


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_count(n):
    space = enumerate_configurations(n)
    assert len(space) == 3**n
    assert len(set(space)) == 3**n
    assert all(len(h) == n for h in space)


def test_enumeration_base_case():
    assert enumerate_configurations(1) == [(-1,), (0,), (1,)]


def test_enumeration_is_lexicographic_and_stable():
    space = enumerate_configurations(3)
    assert space == sorted(space)
    assert space[0] == (-1, -1, -1)
    assert space[-1] == (1, 1, 1)
    assert space == enumerate_configurations(3)


@pytest.mark.parametrize("n", [0, 9, -2])
def test_enumeration_size_guard(n):
    with pytest.raises(SizeLimitError):
        enumerate_configurations(n)


def test_no_replicability_members_two_studies():
    got = set(null_subset(NR, 2).configurations)
    assert got == {(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)}


def test_no_replicability_complement_two_studies():
    members = set(null_subset(NR, 2).configurations)
    rest = [h for h in enumerate_configurations(2) if h not in members]
    assert set(rest) == {(1, 1), (-1, -1)}


def test_no_association_is_all_zero_singleton():
    for n in (1, 3, 5):
        subset = null_subset(NA, n)
        assert subset.configurations == ((0,) * n,)


@pytest.mark.parametrize("n", range(2, 9))
def test_no_replicability_count_formula(n):
    assert len(null_subset(NR, n).members) == 1 + 2 * n + n * (n - 1)
    assert no_replicability_size(n) == 1 + 2 * n + n * (n - 1)


def test_no_replicability_single_study_is_rejected():
    # the predicate covers the whole space at n=1, so there is no proper subset
    count = sum(is_null_member(h, NR) for h in enumerate_configurations(1))
    assert count == 3 == no_replicability_size(1)
    with pytest.raises(ConfigError):
        null_subset(NR, 1)


def test_four_studies_paper_counts():
    assert len(enumerate_configurations(4)) == 81
    assert len(null_subset(NR, 4).members) == 21


def test_membership_predicate_matches_subsets():
    for n in (2, 3):
        space = enumerate_configurations(n)
        for u in range(1, n + 1):
            subset = set(null_subset(u, n).configurations)
            assert subset == {h for h in space if is_null_member(h, u)}


@pytest.mark.parametrize("n", range(1, 9))
def test_null_sizes_match_the_closed_form(n):
    # fewer than u studies share a sign: a < u studies at +1 and b < u at -1
    for u in range(1, n + 1):
        size = sum(
            factorial(n) // (factorial(a) * factorial(b) * factorial(n - a - b))
            for a in range(u) for b in range(u) if a + b <= n
        )
        assert len(null_subset(u, n).members) == size


@pytest.mark.parametrize("n", [1, 3, 8])
def test_u_outside_one_to_n_is_refused(n):
    for u in (0, n + 1):
        with pytest.raises(ConfigError, match=rf"number of studies \({n}\), got u = {u}$"):
            null_subset(u, n)


def test_hypothesis_set_validation():
    assert HypothesisSet(1, 2, (4, 4)).members == (4,)
    with pytest.raises(ConfigError):
        HypothesisSet(1, 2, ())
    with pytest.raises(ConfigError):
        HypothesisSet(2, 2, range(9))
    with pytest.raises(ConfigError):
        HypothesisSet(2, 2, (9,))


def test_configuration_string_roundtrip():
    for h in enumerate_configurations(4):
        assert config_from_string(config_to_string(h)) == h
    assert config_to_string((-1, 0, 1, -1)) == "-0+-"


def test_configuration_string_validation():
    with pytest.raises(ConfigError):
        config_from_string("0x+")
    with pytest.raises(ConfigError):
        config_to_string((0, 2))


def test_hypothesis_set_serialization_order():
    subset = null_subset(NR, 2)
    assert subset.u == 2 and type(subset.u) is int
    assert null_subset(HypothesisKind.NO_REPLICABILITY, 2) == subset  # each member is its own u
    members = [config_to_string(h) for h in subset.configurations]
    assert members == ["-0", "-+", "0-", "00", "0+", "+-", "+0"]


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), m=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_null_truth_mask_matches_the_definitions(data, n, m, seed):
    rng = np.random.default_rng(seed)
    statuses = rng.integers(-1, 2, size=(n, m))
    columns = [tuple(col.tolist()) for col in statuses.T]
    na = [all(s == 0 for s in h) for h in columns]
    nr = [h.count(1) <= 1 and h.count(-1) <= 1 for h in columns]
    assert null_truth_mask(statuses, NA).tolist() == na
    assert null_truth_mask(statuses, NR).tolist() == nr
    assert [is_null_member(h, NR) for h in columns] == nr
    u = data.draw(st.integers(1, n + 1), label="u")
    want = [max(h.count(1), h.count(-1)) < u for h in columns]
    assert null_truth_mask(statuses, u).tolist() == want
    assert null_truth_mask(-statuses, u).tolist() == want
    assert null_truth_mask(rng.permutation(statuses, axis=0), u).tolist() == want
    assert [is_null_member(h, u) for h in columns] == want
