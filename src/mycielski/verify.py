"""Executable checks of the closed-form claims against brute-force oracles.

Each claim id names one verifiable statement about a graph G and its
Mycielskian mu:

  obs1            degree formula in mu matches adjacency-count degrees
  obs2            distance formula in mu matches BFS on mu, entrywise
  lemma3          distance-2 degree sum equals 2(n-1)m - M1 (diameter 2)
  thm_dd          closed-form DD(mu) equals brute-force DD(mu) (diameter 2)
  randic_bounds   lower <= R(mu) <= upper within 1e-9
  randic_equality on regular graphs, R(mu) hits both bounds within 1e-9

Failures carry the full edge list, so any report line can be replayed on
its own. Corpus runs count graphs outside a claim's hypothesis as skipped.
``verify_classes`` checks each isomorphism class once, weighted by size.

The claims share facts about each graph, each computed at most once and
only if a requested claim needs it: mu(G), the BFS distances of G and of
the built mu, R(mu), the Randić bounds of G and its hypotheses. With
every claim, a graph costs one Mycielskian build, one BFS on G and one
BFS on mu, even if a claim fails on it; of a failing class, the member
equal to the class graph reuses its facts, and each other member, on
labels of its own, gets its own. The oracles are still BFS on the
explicitly built mu and brute-force sums; the closed forms read only G's
data. A shared value is computed, and timed, in the first claim that
needs it: with every claim, obs1 builds mu, obs2 runs both BFS and
thm_dd reads their distances. The claim table alone names each claim's
hypothesis; ``relax_diameter`` picks, once per run, the table in which
thm_dd needs only a connected graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Collection, Iterable

import numpy as np

from .errors import (
    DiameterNotTwoError,
    DisconnectedError,
    GraphError,
    InvalidParameterError,
    TooSmallError,
)
from .graph import Graph, all_pairs_distances
from .indices import (
    _degree_distance,
    dd_mycielskian_closed,
    first_zagreb,
    randic,
    randic_bounds,
)
from .transform import mu_degrees, mu_distance_matrix, mycielskian

BOUND_TOL = 1e-9
# one isomorphism class per item: (g, members), the labeled graphs isomorphic to g
_Classes = Iterable[tuple[Graph, Collection[Graph]]]


def _fmt(value):
    """Canonical JSON value: floats squeezed to 12 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class Failure:
    """One counterexample: the graph, the oracle value, the formula value."""

    edges: tuple[tuple[int, int], ...]
    expected: object
    actual: object

    def as_dict(self) -> dict:
        # built directly: dataclasses.asdict deep-copies every edge first
        return {
            "edges": [list(e) for e in self.edges],
            "expected": _fmt(self.expected),
            "actual": _fmt(self.actual),
        }


@dataclass
class VerificationOutcome:
    """Result of running one claim over one graph or a whole corpus.

    ``checked`` counts elementary comparisons (vertices for obs1, matrix
    entries for obs2, one per graph otherwise); ``skipped`` counts corpus
    graphs outside the claim's hypothesis.
    """

    claim: str
    checked: int = 0
    skipped: int = 0
    failures: list[Failure] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self, include_timing: bool = True) -> dict:
        return {
            "claim": self.claim,
            "checked": self.checked,
            "skipped": self.skipped,
            "failures": [f.as_dict() for f in self.failures],
            "elapsed_ms": round(self.elapsed_ms, 3) if include_timing else 0,
        }


class _Shared(dict):
    """Facts about one graph ``shared["g"]``, each computed at most once.

    ``shared[key]`` computes its value by ``_COMPUTE[key]`` on first use and
    keeps it, so a run computes only what its requested claims need, in the
    first claim that needs it.
    """

    def __missing__(self, key: str):
        value = self[key] = _COMPUTE[key](self["g"], self)
        return value


def _not_two(g: Graph, shared: _Shared) -> GraphError | None:
    diameter = int(shared["dg"].max())
    return None if diameter == 2 else DiameterNotTwoError(diameter)


# mu is the built Mycielskian and dg and dmu the BFS distances of G and of
# mu. Each hypothesis maps to None if it holds or else to the error that a
# single graph outside it raises.
_COMPUTE = {
    "mu": lambda g, s: mycielskian(g).mu,
    "dg": lambda g, s: all_pairs_distances(g),
    "dmu": lambda g, s: all_pairs_distances(s["mu"]),
    "r_mu": lambda g, s: randic(s["mu"]),
    "bounds": lambda g, s: randic_bounds(g),
    "no_isolated": lambda g, s: (
        TooSmallError("an isolated vertex makes mu(G) disconnected") if 0 in g.degrees else None
    ),
    "g_connected": lambda g, s: (
        None if g.is_connected() else DisconnectedError("the claim needs a connected graph")
    ),
    "connected": lambda g, s: s["g_connected"] or s["no_isolated"],
    "diameter_two": lambda g, s: s["g_connected"] or _not_two(g, s),
    "regular": lambda g, s: s["no_isolated"] or (
        InvalidParameterError("the claim needs a regular graph")
        if min(g.degrees) != max(g.degrees) else None
    ),
}


# Every check takes (g, shared) and returns its number of comparisons,
# whether the claim holds, and the oracle's and the formula's values, which
# ``_run`` records in a Failure when it does not.


def _check_obs1(g: Graph, shared: _Shared):
    by_formula, by_adjacency = mu_degrees(g), shared["mu"].degrees
    return len(by_formula), by_formula == by_adjacency, list(by_adjacency), list(by_formula)


def _check_obs2(g: Graph, shared: _Shared):
    closed, bfs = mu_distance_matrix(shared["dg"]), shared["dmu"]
    if np.array_equal(closed, bfs):
        return closed.size, True, None, None
    bad = np.argwhere(closed != bfs)
    return (
        closed.size,
        False,
        [[int(u), int(v), int(bfs[u, v])] for u, v in bad],
        [[int(u), int(v), int(closed[u, v])] for u, v in bad],
    )


def _check_lemma3(g: Graph, shared: _Shared):
    # DD's pair sum over the pairs at distance 2 alone; the formula reads only n, m and M1
    brute = _degree_distance(g, (shared["dg"] == 2).sum(axis=1, dtype=np.int64))
    formula = 2 * (g.n - 1) * g.m - first_zagreb(g)
    return 1, brute == formula, brute, formula


def _check_thm_dd(g: Graph, shared: _Shared):
    dd = _degree_distance(g, shared["dg"].sum(axis=1, dtype=np.int64))
    closed = dd_mycielskian_closed(g.n, g.m, first_zagreb(g), dd)
    brute = _degree_distance(shared["mu"], shared["dmu"].sum(axis=1, dtype=np.int64))
    return 1, closed == brute, brute, closed


def _check_randic_bounds(g: Graph, shared: _Shared):
    bounds, r_mu = shared["bounds"], shared["r_mu"]
    holds = bounds.lower - BOUND_TOL <= r_mu <= bounds.upper + BOUND_TOL
    return 2, holds, {"lower": bounds.lower, "upper": bounds.upper}, r_mu


def _check_randic_equality(g: Graph, shared: _Shared):
    bounds, r_mu = shared["bounds"], shared["r_mu"]
    holds = not (abs(r_mu - bounds.lower) > BOUND_TOL or abs(r_mu - bounds.upper) > BOUND_TOL)
    return 2, holds, {"lower": bounds.lower, "upper": bounds.upper}, r_mu


# claim id -> (hypothesis, check), in report order
_CLAIMS = {
    "obs1": ("no_isolated", _check_obs1),
    "obs2": ("connected", _check_obs2),
    "lemma3": ("diameter_two", _check_lemma3),
    "thm_dd": ("diameter_two", _check_thm_dd),
    "randic_bounds": ("no_isolated", _check_randic_bounds),
    "randic_equality": ("regular", _check_randic_equality),
}
# relax_diameter: thm_dd evaluates its polynomial on any connected graph
_RELAXED_CLAIMS = {**_CLAIMS, "thm_dd": ("connected", _check_thm_dd)}

CLAIM_IDS = tuple(_CLAIMS)


def _run(
    claims: Iterable[str], classes: _Classes, relax_diameter: bool, strict: bool
) -> list[VerificationOutcome]:
    requested = set(claims)
    unknown = requested - set(CLAIM_IDS)
    if unknown:
        raise ValueError(f"unknown claim ids: {sorted(unknown)}")
    table = _RELAXED_CLAIMS if relax_diameter else _CLAIMS
    active = [(c, *table[c]) for c in CLAIM_IDS if c in requested]
    outcomes = {c: VerificationOutcome(c) for c, _, _ in active}

    for g, members in classes:
        shared = _Shared(g=g)
        for claim, hypothesis, check in active:
            out = outcomes[claim]
            started = time.perf_counter()
            violation = shared[hypothesis]
            if violation is None:
                checked, holds, _, _ = check(g, shared)
                out.checked += checked * len(members)
                for h in () if holds else members:  # each member's own failure, if g fails
                    _, holds, expected, actual = check(h, shared if h == g else _Shared(g=h))
                    if not holds:
                        out.failures.append(Failure(h.edges, expected, actual))
            elif strict:
                raise violation
            else:
                out.skipped += len(members)
            out.elapsed_ms += (time.perf_counter() - started) * 1000.0

    for out in outcomes.values():
        out.failures.sort(key=lambda f: f.edges)
    return list(outcomes.values())


def verify_graph(claim: str, g: Graph, *, relax_diameter: bool = False) -> VerificationOutcome:
    """Run one claim on one graph.

    A graph outside the claim's hypothesis raises: DisconnectedError if it
    is disconnected (obs2, lemma3, thm_dd), DiameterNotTwoError for another
    diameter (lemma3, thm_dd), TooSmallError if it has an isolated vertex
    (obs1, obs2, the Randić claims) and InvalidParameterError if it is
    irregular (randic_equality). With ``relax_diameter``, thm_dd evaluates
    its polynomial on any connected graph and merely records whether it
    matches; outside diameter 2 a mismatch is an observation, not a
    refuted theorem.
    """
    (out,) = _run([claim], [(g, (g,))], relax_diameter, strict=True)
    return out


def verify_corpus(
    claims: Iterable[str],
    corpus: Iterable[Graph],
    relax_diameter: bool = False,
) -> list[VerificationOutcome]:
    """Run the requested claims over every applicable corpus graph.

    The corpus streams through once; graphs outside a claim's hypothesis
    are counted as skipped for that claim. Failures are sorted by the
    canonical edge encoding so the report is independent of corpus order.
    """
    return _run(claims, ((g, (g,)) for g in corpus), relax_diameter, strict=False)


def verify_classes(
    claims: Iterable[str], classes: _Classes, relax_diameter: bool = False
) -> list[VerificationOutcome]:
    """``verify_corpus`` over isomorphism classes ``(g, members)``, members a sized iterable
    of the labeled graphs isomorphic to g. Each claim is label-free, so it runs on g and
    counts for ``len(members)`` graphs; if it fails there, it lists the members' failures."""
    return _run(claims, classes, relax_diameter, strict=False)
