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

import itertools
import operator
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigError, SizeLimitError

MAX_STUDIES = 8

_STATUS_TO_CHAR = {-1: "-", 0: "0", 1: "+"}
_CHAR_TO_STATUS = {"-": -1, "0": 0, "+": 1}


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
    vector in this package is aligned to it.
    """
    n = _checked_study_count(n)
    return list(itertools.product((-1, 0, 1), repeat=n))


def config_to_string(h) -> str:
    """Compact serialization over the alphabet {-, 0, +}, e.g. "-0+"."""
    return "".join(_STATUS_TO_CHAR[s] for s in validate_configuration(h))


def config_from_string(text: str) -> tuple[int, ...]:
    try:
        return tuple(_CHAR_TO_STATUS[c] for c in text)
    except KeyError as exc:
        raise ConfigError(f"invalid configuration string {text!r}") from exc


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
    """A null hypothesis: a nonempty proper subset of the 3**n configurations.

    The null holds while fewer than u studies share a sign; members holds
    sorted indices into enumerate_configurations(n).
    """

    u: int
    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        n = _checked_study_count(self.n)
        object.__setattr__(self, "n", n)
        size = 3**n
        members = tuple(sorted(set(operator.index(i) for i in self.members)))
        if any(i < 0 or i >= size for i in members):
            raise ConfigError("member indices outside the configuration space")
        if not 0 < len(members) < size:
            raise ConfigError(
                "a hypothesis set must be a nonempty proper subset of the space"
            )
        object.__setattr__(self, "members", members)

    @property
    def configurations(self) -> tuple[tuple[int, ...], ...]:
        space = enumerate_configurations(self.n)
        return tuple(space[i] for i in self.members)


def null_subset(u: int, n: int) -> HypothesisSet:
    """The configurations over n studies where fewer than u share a sign.

    u = 1 (no association) is the all-zero singleton; u = 2 (no
    replicability) collects configurations with at most one +1 and at most
    one -1 entry, 1 + 2n + n(n-1) members. It needs 1 <= u <= n.
    """
    space = np.array(enumerate_configurations(n)).T
    u = checked_u(u, n)
    members = tuple(np.flatnonzero(null_truth_mask(space, u)).tolist())
    return HypothesisSet(u, n, members)


def no_replicability_size(n: int) -> int:
    """Closed-form member count of the no-replicability null: 1 + 2n + n(n-1)."""
    n = _checked_study_count(n)
    return 1 + 2 * n + n * (n - 1)
