"""Association-status configurations and the partial-conjunction nulls.

A configuration assigns each of n studies a status in {-1, 0, +1}:
negatively associated, not associated, positively associated. A null
hypothesis about a feature is a subset of the enumerated 3**n space. Every
null here is named by one integer u: it holds while fewer than u studies
share a sign, the partial-conjunction null of Benjamini & Heller (2008,
Biometrics 64:1215). u = 1 is "no association" (null in every study),
u = 2 is "no replicability" (no sign shared by two or more studies), and
u >= 3 is repfdr's "association in at least u of n" (Heller, Yaacoby &
Yekutieli 2014, Bioinformatics 30:2971). Studies can reject it when
1 <= u <= n.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import ConfigError, SizeLimitError

MAX_STUDIES = 8

_ALPHABET = "-0+"  # the characters of statuses -1, 0 and +1, in their order


class HypothesisKind(IntEnum):
    """The two named nulls; each member is its own u."""

    NO_ASSOCIATION = 1
    NO_REPLICABILITY = 2


def checked_u(u, n: int) -> int:
    """u as an int, checking that n studies can reject its null: 1 <= u <= n."""
    u = operator.index(u)
    if not 1 <= u <= n:
        raise ConfigError(f"u must be between 1 and the number of studies ({n}), got u = {u}")
    return u


def _checked_study_count(n) -> int:
    n = operator.index(n)
    if not 1 <= n <= MAX_STUDIES:
        raise SizeLimitError(
            f"number of studies must be between 1 and {MAX_STUDIES}, got {n}"
        )
    return n


def validate_configuration(h) -> tuple[int, ...]:
    """Return h as a tuple of ints, checking every entry is -1, 0 or +1."""
    h = tuple(operator.index(s) for s in h)
    if len(h) < 1:
        raise ConfigError("a configuration needs at least one study entry")
    for s in h:
        if s not in (-1, 0, 1):
            raise ConfigError(f"configuration entries must be -1, 0 or +1, got {s}")
    return h


def enumerate_configurations(n: int) -> list[tuple[int, ...]]:
    """All 3**n status vectors in lexicographic order with -1 < 0 < +1.

    The order is deterministic and stable across runs; every probability
    vector in this package is aligned to it. The vectors are built once per
    n and shared by every list returned.
    """
    return list(_configurations(_checked_study_count(n)))


@functools.lru_cache(maxsize=None)
def _configurations(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product((-1, 0, 1), repeat=n))


def config_to_string(h) -> str:
    """Compact serialization over the alphabet {-, 0, +}, e.g. "-0+"."""
    return "".join(_ALPHABET[s + 1] for s in validate_configuration(h))


def config_from_string(text: str) -> tuple[int, ...]:
    try:
        return tuple(_ALPHABET.index(c) - 1 for c in text)
    except ValueError as exc:
        raise ConfigError(f"invalid configuration string {text!r}") from exc


def configuration_strings(n: int) -> list[str]:
    """config_to_string of each of enumerate_configurations(n), in that order."""
    return list(map("".join, itertools.product(_ALPHABET, repeat=_checked_study_count(n))))


def null_truth_mask(statuses, u: int) -> np.ndarray:
    """Which columns of an (n, M) status array the null of u holds for.

    A column is null when fewer than u studies share a sign:
    max(#(+1), #(-1)) < u.
    """
    statuses = np.ascontiguousarray(statuses)  # study-major: each count is one pass
    shared = np.maximum((statuses == 1).sum(axis=0), (statuses == -1).sum(axis=0))
    return shared < operator.index(u)  # a plain int: numpy compares an IntEnum slowly


def is_null_member(h, u: int) -> bool:
    """Whether configuration h belongs to the null subset of u."""
    return bool(null_truth_mask(np.array(validate_configuration(h))[:, None], u)[0])


@dataclass(frozen=True)
class HypothesisSet:
    """The null of u over n studies: it holds while fewer than u studies share a sign.

    members holds the sorted indices of its configurations in
    enumerate_configurations(n). It needs 1 <= u <= n.
    """

    u: int
    n: int
    members: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n = _checked_study_count(self.n)
        u = checked_u(self.u, n)
        members = np.flatnonzero(null_truth_mask(np.array(enumerate_configurations(n)).T, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "members", tuple(members.tolist()))


def null_subset(u: int, n: int) -> HypothesisSet:
    """The configurations over n studies where fewer than u share a sign.

    u = 1 (no association) is the all-zero singleton; u = 2 (no
    replicability) collects configurations with at most one +1 and at most
    one -1 entry, 1 + 2n + n(n-1) members. It needs 1 <= u <= n.
    """
    return HypothesisSet(u, n)


def no_replicability_size(n: int) -> int:
    """Closed-form member count of the no-replicability null: 1 + 2n + n(n-1)."""
    n = _checked_study_count(n)
    return 1 + 2 * n + n * (n - 1)
