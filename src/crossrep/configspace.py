"""Association-status configurations and named null-hypothesis subsets.

A configuration assigns each of n studies a status in {-1, 0, +1}:
negatively associated, not associated, positively associated. Null
hypotheses about a feature are subsets of the enumerated 3**n space. The
two named nulls are one rule, "fewer than u studies share a sign", the
partial-conjunction null of Benjamini & Heller (2008, Biometrics 64:1215):
u = 1 is "no association" (null in every study) and u = 2 is "no
replicability" (no sign shared by two or more studies).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, SizeLimitError

MAX_STUDIES = 8

_STATUS_TO_CHAR = {-1: "-", 0: "0", 1: "+"}
_CHAR_TO_STATUS = {"-": -1, "0": 0, "+": 1}


class HypothesisKind(Enum):
    NO_ASSOCIATION = "no_association"
    NO_REPLICABILITY = "no_replicability"
    CUSTOM = "custom"

    @property
    def shared_signs(self) -> int:
        """u of a named null: it holds while fewer than u studies share a sign."""
        if self is HypothesisKind.CUSTOM:
            raise ConfigError("the null predicate is defined only for the named nulls")
        return NAMED_NULLS.index(self) + 1


NAMED_NULLS = (HypothesisKind.NO_ASSOCIATION, HypothesisKind.NO_REPLICABILITY)  # by u - 1


def checked_shared_signs(kind: HypothesisKind, n: int) -> int:
    """u of a named null, checking that the n studies can reject it (u <= n)."""
    u = kind.shared_signs
    if u > n:
        studies = ("one study", "two studies")[u - 1]
        raise ConfigError(f"the {kind.value.replace('_', '-')} null needs at least {studies}")
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


def null_truth_mask(statuses, kind: HypothesisKind) -> np.ndarray:
    """Which columns of an (n, M) status array the named null holds for.

    A column is null when fewer than u studies share a sign:
    max(#(+1), #(-1)) < u.
    """
    statuses = np.ascontiguousarray(statuses)  # study-major: each count is one pass
    shared = np.maximum((statuses == 1).sum(axis=0), (statuses == -1).sum(axis=0))
    return shared < kind.shared_signs


def is_null_member(h, kind: HypothesisKind) -> bool:
    """Whether configuration h belongs to the named null subset."""
    return bool(null_truth_mask(np.array(validate_configuration(h))[:, None], kind)[0])


@dataclass(frozen=True)
class HypothesisSet:
    """A null hypothesis: a nonempty proper subset of the 3**n configurations.

    members holds sorted indices into enumerate_configurations(n).
    """

    kind: HypothesisKind
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

    @classmethod
    def custom(cls, n: int, configurations) -> "HypothesisSet":
        space = enumerate_configurations(n)
        index = {h: i for i, h in enumerate(space)}
        members = []
        for h in configurations:
            h = validate_configuration(h)
            if len(h) != n:
                raise ConfigError(f"configuration {h} has length {len(h)}, expected {n}")
            members.append(index[h])
        return cls(HypothesisKind.CUSTOM, n, tuple(members))

    @property
    def configurations(self) -> tuple[tuple[int, ...], ...]:
        space = enumerate_configurations(self.n)
        return tuple(space[i] for i in self.members)


def null_subset(kind: HypothesisKind, n: int) -> HypothesisSet:
    """Named null subset over n studies.

    The no-association null is the all-zero singleton. The no-replicability
    null collects configurations with at most one +1 and at most one -1
    entry; it has 1 + 2n + n(n-1) members. Each needs n >= u studies.
    """
    space = np.array(enumerate_configurations(n)).T
    checked_shared_signs(kind, n)
    members = tuple(np.flatnonzero(null_truth_mask(space, kind)).tolist())
    return HypothesisSet(kind, n, members)


def no_replicability_size(n: int) -> int:
    """Closed-form member count of the no-replicability null: 1 + 2n + n(n-1)."""
    n = _checked_study_count(n)
    return 1 + 2 * n + n * (n - 1)
