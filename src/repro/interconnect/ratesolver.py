"""Max-min fair rate solvers for the fabric simulator.

The progressive-filling loop in :class:`~repro.interconnect.fabric.FabricSimulator`
re-solves a max-min fair (water-filling) allocation on every epoch — each
arrival, completion and link event.  This module separates that algorithm
from the simulator behind a small protocol:

* :class:`RateSolver` — the protocol: ``bind(capacities)`` once per
  topology state, then ``solve(flow_links, remaining_bytes)`` per epoch.
* :class:`IndexedSolver` — the fabric's solver: the reference's rounds
  over a link index built once per solve.  Each round takes a C-level
  ``min`` over the fair shares and updates only the links the fixed flows
  cross.  An epoch whose flows share no link (most low-concurrency
  epochs) skips the rounds: each flow gets its path's smallest capacity.
  Pure Python and stateless between epochs.
* :class:`ReferenceSolver` — the original pure-Python loop, which
  recounts link users over every unfixed flow each round.  It is the
  oracle :class:`IndexedSolver` is checked against.

The two are **bit-identical**: the indexed solver replicates the
reference's round structure, its first-insertion-order bottleneck
tie-break, its sequential clamped capacity updates and its backlog
summation order, so rates *and* the saturated-link set agree to the last
bit (verified by :func:`repro.validate.differential.check_solvers`).

The fabric rebinds its solver after every topology mutation (link flaps,
degraded fabrics), the same way the shared
:class:`~repro.interconnect.routecache.RouteCache` is invalidated.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Set, Tuple

#: A directed link, as decomposed from a routed path.
Link = Tuple[str, str]

#: Minimum number of flows contending for a link before it can count as
#: congested. In max-min fairness *every* flow is bottlenecked somewhere, so
#: full utilisation alone does not indicate congestion.
MIN_CONTENDERS_FOR_CONGESTION = 3

#: Minimum sustained backlog (seconds of traffic at line rate queued behind a
#: link) before the link counts as congested. Short mice sharing a link drain
#: in microseconds and never build a standing queue; incast of elephants
#: sustains the backlog for milliseconds.
CONGESTION_BACKLOG_THRESHOLD = 1e-3


class RateSolver:
    """Protocol for max-min fair rate computation over a fixed link set.

    Lifecycle: the fabric calls :meth:`bind` with the current per-direction
    capacity map (once at construction and again after every topology
    mutation), then :meth:`solve` once per rate epoch.  Implementations may
    keep incremental state between ``solve`` calls; ``bind`` must reset it.
    """

    #: Short name used in check and test reports.
    name: str = "abstract"

    def bind(self, capacities: Dict[Link, float]) -> None:
        """Attach the solver to a capacity map (resets incremental state)."""
        raise NotImplementedError

    def solve(
        self,
        flow_links: Dict[int, List[Link]],
        remaining_bytes: Optional[Dict[int, float]] = None,
    ) -> Tuple[Dict[int, float], Set[Link]]:
        """Water-filling max-min fair allocation.

        ``flow_links`` maps each flow to its directed-link decomposition in
        admission order (dict insertion order is semantically significant:
        it drives the bottleneck tie-break and backlog summation order).

        Returns per-flow rates and the set of *congested* bottleneck links:
        links with at least :data:`MIN_CONTENDERS_FOR_CONGESTION` contending
        flows whose aggregate backlog (``remaining_bytes``) would take at
        least :data:`CONGESTION_BACKLOG_THRESHOLD` seconds to drain at line
        rate. Without ``remaining_bytes`` the backlog test is skipped.
        """
        raise NotImplementedError


# --- the reference implementation ----------------------------------------------


class ReferenceSolver(RateSolver):
    """The original pure-Python water-filling loop (semantic ground truth).

    :class:`IndexedSolver` must agree with it bit-for-bit on rates and on
    the saturated set.  It has no incremental state and no third-party
    dependencies.
    """

    name = "reference"

    def __init__(self) -> None:
        self._capacities: Dict[Link, float] = {}

    def bind(self, capacities: Dict[Link, float]) -> None:
        self._capacities = capacities

    def solve(
        self,
        flow_links: Dict[int, List[Link]],
        remaining_bytes: Optional[Dict[int, float]] = None,
    ) -> Tuple[Dict[int, float], Set[Link]]:
        remaining_capacity = dict(self._capacities)
        unfixed: Dict[int, List[Link]] = dict(flow_links)
        rates: Dict[int, float] = {}
        saturated: Set[Link] = set()

        while unfixed:
            # Count unfixed flows per link.
            link_users: Dict[Link, int] = {}
            for links in unfixed.values():
                for link in links:
                    link_users[link] = link_users.get(link, 0) + 1
            # Bottleneck link: minimal fair share.
            bottleneck = None
            bottleneck_share = float("inf")
            for link, users in link_users.items():
                share = remaining_capacity[link] / users
                if share < bottleneck_share:
                    bottleneck_share = share
                    bottleneck = link
            if bottleneck is None:  # flows with zero-length paths only
                for flow_id in unfixed:
                    rates[flow_id] = float("inf")
                break
            if link_users[bottleneck] >= MIN_CONTENDERS_FOR_CONGESTION:
                if remaining_bytes is None:
                    saturated.add(bottleneck)
                else:
                    backlog = sum(
                        remaining_bytes.get(flow_id, 0.0)
                        for flow_id, links in unfixed.items()
                        if bottleneck in links
                    )
                    drain_time = backlog / self._capacities[bottleneck]
                    if drain_time >= CONGESTION_BACKLOG_THRESHOLD:
                        saturated.add(bottleneck)
            # Fix every flow crossing the bottleneck at the fair share.
            fixed_now = [
                flow_id for flow_id, links in unfixed.items() if bottleneck in links
            ]
            for flow_id in fixed_now:
                rates[flow_id] = bottleneck_share
                for link in unfixed[flow_id]:
                    remaining_capacity[link] = max(
                        0.0, remaining_capacity[link] - bottleneck_share
                    )
                del unfixed[flow_id]
        return rates, saturated


# --- the indexed implementation (the default) ----------------------------------


class IndexedSolver(RateSolver):
    """Exact pure-Python water-filling over a per-solve link index.

    The reference recounts link users over every unfixed flow in every
    round.  This solver builds the counts once per solve and then pays
    per round only for what the round changes:

    * first, a scan that stops at the first link traversed twice: when
      there is none, every link has one user and max-min needs no rounds
      (see :meth:`_disjoint_rates`).  A contended epoch reads only the
      prefix of its flows up to the first shared link;
    * otherwise one pass over ``flow_links`` numbers the links in use and
      lists each link's flows in admission order, once per traversal, so
      a list's length is the link's user count with multiplicity;
      index-aligned capacity, count and fair-share lists follow from it;
    * each round takes the C-level ``min`` of that list, fixes the
      bottleneck's unfixed members, and updates capacity, count and share
      only on the links those flows cross; a drained link's share becomes
      ``inf`` so it can never win again.

    Exactness: every share is the same ``capacity / count`` divide the
    reference performs, and every capacity update the same clamped
    subtraction in the same order (fixed flows in admission order, links
    in path order, once per traversal).  When the minimum is unique it is
    the reference's bottleneck; when it is tied the reference's
    first-insertion-order tie-break is replayed by scanning unfixed flows
    in admission order and their links in path order.  The congestion
    backlog is summed with ``sum`` over the fixed flows in admission
    order, and rates are inserted in the reference's order.  Rates and
    the saturated set are therefore bit-identical.

    No state survives a solve: :meth:`bind` only stores the capacity map,
    so topology mutations need no invalidation.
    """

    name = "indexed"

    def __init__(self) -> None:
        self._capacities: Dict[Link, float] = {}

    def bind(self, capacities: Dict[Link, float]) -> None:
        self._capacities = capacities

    def solve(
        self,
        flow_links: Dict[int, List[Link]],
        remaining_bytes: Optional[Dict[int, float]] = None,
    ) -> Tuple[Dict[int, float], Set[Link]]:
        saturated: Set[Link] = set()
        # Link-disjoint flows need no rounds (see _disjoint_rates).  The
        # scan stops at the first link traversed twice, so a contended
        # epoch reads only a prefix of its flows here.
        seen: Set[Link] = set()
        traversals = 0
        for path in flow_links.values():
            seen.update(path)
            traversals += len(path)
            if len(seen) != traversals:
                break
        else:
            return self._disjoint_rates(flow_links), saturated
        infinity = float("inf")
        rates: Dict[int, float] = {}
        # Flows by admission position; links by first use in this solve.
        flow_ids = list(flow_links)
        flow_rows: List[List[int]] = []
        index: Dict[Link, int] = {}
        links: List[Link] = []
        members: List[List[int]] = []
        for position, path in enumerate(flow_links.values()):
            rows = []
            for link in path:
                row = index.get(link)
                if row is None:
                    row = index[link] = len(links)
                    links.append(link)
                    members.append([position])
                else:
                    members[row].append(position)
                rows.append(row)
            flow_rows.append(rows)
        capacities = self._capacities
        counts = list(map(len, members))
        caps = [capacities[link] for link in links]
        shares = [cap / count for cap, count in zip(caps, counts)]
        fixed = [False] * len(flow_ids)
        unfixed = len(flow_ids)

        while unfixed and shares:
            share = min(shares)
            if share == infinity:  # only unconstrained flows remain
                break
            row = shares.index(share)
            if shares.count(share) > 1:
                row = self._tie_break(share, shares, flow_rows, fixed)
            fixed_now = []
            for position in members[row]:
                if not fixed[position]:  # a detour lists its flow twice
                    fixed[position] = True
                    fixed_now.append(position)
            if counts[row] >= MIN_CONTENDERS_FOR_CONGESTION:
                link = links[row]
                if remaining_bytes is None:
                    saturated.add(link)
                else:
                    backlog = sum(
                        remaining_bytes.get(flow_ids[p], 0.0) for p in fixed_now
                    )
                    if backlog / capacities[link] >= CONGESTION_BACKLOG_THRESHOLD:
                        saturated.add(link)
            for position in fixed_now:
                rates[flow_ids[position]] = share
                for touched in flow_rows[position]:
                    cap = caps[touched] - share
                    if not cap > 0.0:  # max(0.0, cap), NaN included
                        cap = 0.0
                    caps[touched] = cap
                    count = counts[touched] - 1
                    counts[touched] = count
                    shares[touched] = cap / count if count else infinity
            unfixed -= len(fixed_now)
        if unfixed:
            for position, flow_id in enumerate(flow_ids):
                if not fixed[position]:
                    rates[flow_id] = infinity
        return rates, saturated

    def _disjoint_rates(
        self, flow_links: Dict[int, List[Link]]
    ) -> Dict[int, float]:
        """Max-min rates when no link is traversed twice.

        Every link then has one user, so each round's fair share is a bare
        capacity (``cap / 1 == cap``) and fixing a flow touches no other
        flow's links: each flow gets the smallest capacity on its path
        (``min`` keeps the first of equal minima, as the reference's strict
        ``<`` does), a zero-length path gets ``inf``, and no link reaches
        :data:`MIN_CONTENDERS_FOR_CONGESTION`.  The reference fixes flows
        in ascending rate with ties in admission order; a stable sort
        reproduces that insertion order.
        """
        infinity = float("inf")
        lookup = self._capacities.__getitem__
        rates = {}
        for flow_id, path in flow_links.items():
            rates[flow_id] = min(map(lookup, path)) if path else infinity
        if len(rates) > 1:
            rates = dict(sorted(rates.items(), key=itemgetter(1)))
        return rates

    @staticmethod
    def _tie_break(
        share: float,
        shares: List[float],
        flow_rows: List[List[int]],
        fixed: List[bool],
    ) -> int:
        """First tied link in the reference's ``link_users`` insertion order.

        The reference counts users by scanning unfixed flows in admission
        order and each flow's links in path order; among equal minimal
        shares the first one seen wins its strict ``<`` comparison.
        """
        for position, rows in enumerate(flow_rows):
            if fixed[position]:
                continue
            for row in rows:
                if shares[row] == share:
                    return row
        raise AssertionError("tied bottleneck not reachable from any flow")
