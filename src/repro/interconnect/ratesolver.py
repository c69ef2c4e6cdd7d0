"""Max-min fair rate solvers for the fabric simulator.

The progressive-filling loop in :class:`~repro.interconnect.fabric.FabricSimulator`
re-solves a max-min fair (water-filling) allocation on every contended
epoch — each arrival or completion after which some link has two
users.  (Without one, each flow's rate is its path's smallest
capacity, which the fabric keeps itself.)  This module separates that
algorithm from the simulator behind a small protocol:

* :class:`RateSolver` — the protocol: ``bind(capacities)`` once per
  topology state, then ``solve(flow_links, remaining_bytes)`` per epoch.
* :class:`IndexedSolver` — the fabric's solver: the reference's rounds
  over a link index that is kept from one contended epoch to the next
  and patched with the flows that arrived, left or were rerouted.  Each
  round finds the smallest fair share, from a lazy heap of share levels
  when the solve has at least ``_HEAP_MIN_ROWS`` links and with a C-level
  ``min`` over the share list below that, and updates only the links the
  fixed flows cross; while the minimum is tied, rounds chain through the
  tied links without looking for it again.  A solve on the kept index
  first replays the rounds of the last contended solve that the flows
  which arrived, left or moved since cannot affect.  Pure Python;
  ``bind`` drops the kept index.
* :class:`ReferenceSolver` — the original pure-Python loop, which
  recounts link users over every unfixed flow each round.  It is the
  oracle :class:`IndexedSolver` is checked against.

The two are **bit-identical**: the indexed solver replicates the
reference's round structure, its first-insertion-order bottleneck
tie-break, its sequential clamped capacity updates and its backlog
summation order, so rates *and* the saturated-link set agree to the last
bit (verified by :func:`repro.validate.differential.check_solvers` and
``tests/proptest/test_ratesolver_properties.py``).

The fabric rebinds its solver after every topology mutation (a graph
degraded or edited between runs), the same way the shared
:class:`~repro.interconnect.routecache.RouteCache` is invalidated.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush
from operator import truediv
from typing import Dict, List, Optional, Set, Tuple

#: A directed link, as decomposed from a routed path.
Link = Tuple[str, str]

#: Contended epochs with fewer flows rebuild the indexed solver's link
#: index on every solve: listing a handful of flows costs less than
#: keeping copies of their paths to compare the next epoch against.
_KEEP_INDEX_MIN_FLOWS = 16

#: Solves over at least this many links pick each round's bottleneck
#: from a heap of share levels; smaller ones take the C-level ``min``
#: over their share list.  The heap costs a Python-level step per link
#: to build, per drained link to discard and per touched link to look
#: for a lowered share, which the ``min`` never pays; on shorter share
#: lists the scan is the cheaper of the two.
_HEAP_MIN_ROWS = 160

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
    """Exact pure-Python water-filling over a link index kept across epochs.

    The reference recounts link users over every unfixed flow in every
    round.  This solver keeps a link index and pays per round only for
    what the round changes:

    * first the link index is brought up to date (see :meth:`_sync`).
      Each flow has a *slot*, and slots ascend in admission order; each
      *row* is a link in use and lists its flows' slots in ascending
      order, once per traversal, so a list's length is the link's user
      count with multiplicity.  Index-aligned capacity, count and share
      lists are built from it per solve;
    * each round finds the smallest share and the rows tied at it, fixes
      the bottleneck's unfixed members, and updates capacity, count and
      share only on the links those flows cross.  The bottleneck drains:
      its share becomes ``inf`` so it can never win again;
    * below ``_HEAP_MIN_ROWS`` rows the minimum is the C-level ``min`` of
      the share list, with ``index`` and ``count`` for its rows.  At or
      above it the minimum comes from a lazy heap of share levels (see
      :class:`_ShareLevels`): a row's entry lies at or below its share,
      and is only settled when its level reaches the top, so a round
      costs about the links it touches rather than a scan of all rows.
      The heap pays Python-level steps per row, to file and to discard
      it, that a short list's scan does not repay;
    * while the minimum is tied the rounds form a *tie chain*: the next
      bottleneck is picked from the tied rows, and the minimum is looked
      for again only once no row is left at the tied share, or a touched
      row newly reaches it or falls below it.  Tied rows taken from the
      heap go back to it as they leave the chain;
    * a solve on the kept index starts with a *prefix replay* (see
      :meth:`_replay`): each contended solve logs its rounds as
      ``(bottleneck link, share, fixed slots)``, and the next one repeats
      them, without looking for any minimum, up to the first round the
      epoch's changes can affect.  Then it builds its share list once and
      runs the remaining rounds as above.

    Exactness: every share is the same ``capacity / count`` divide the
    reference performs, and every capacity update the same clamped
    subtraction in the same order (fixed flows in admission order, links
    in path order, once per traversal).  A unique minimum is the
    reference's bottleneck.  Both ways of finding it see the same rows at
    the same share: the heap's invariant is that every row with a finite
    share has an entry at or below it.  Water-filling only raises a
    share, except by rounding, so a row whose share rises keeps its
    entry, and one whose share falls below its entry (rounding only) is
    filed again as the update loop writes the lowered share.  When a level
    reaches the top, every row whose share equals it has its entry
    there, and all of them are taken together, as ``count`` finds them
    on the list.  Among tied minima the reference keeps the link it
    counted first, scanning unfixed flows in admission order and their
    links in path order: the tied row whose first unfixed member is
    earliest, and of those the one first in that member's path.  The
    first unfixed slot decides it whenever its flow crosses a tied row;
    otherwise a cursor per row walks its ascending member list to the
    first unfixed slot.  Within a chain the tied set stays exact: rows no
    fixed flow crosses keep their shares, each touched row is checked,
    and a touched row that newly reaches the tied share or falls below
    it (only rounding can do either) ends the chain.  The congestion
    backlog is summed with ``sum`` over the fixed flows in admission
    order, and rates are inserted in the reference's order.  Rates and
    the saturated set are therefore bit-identical.

    The kept index: each solve compares every flow's path *by value* with
    a private copy, so a path list replaced, or mutated in place, between
    solves is seen.  Flows that left are unlisted and their slots
    vacated, new ones get slots at the end, and rerouted ones are relisted
    at their slot, so the index always equals a fresh build of the same
    epoch up to slot and row numbering, which no result depends on (ties
    go by admission order, not by row).  A row whose last flow leaves is
    dropped, so the share list covers exactly the links in use.  A change
    of admission order, an epoch of fewer than ``_KEEP_INDEX_MIN_FLOWS``
    flows, or a patch that would touch more than half as many flows as it
    keeps rebuilds the index instead; :meth:`bind` drops it.

    The replay is exact.  A *changed* row is a link of a flow that
    arrived, left or was rerouted since the logged solve (old and new
    links of a reroute both count).  Every other row has the same members
    in the same slots, hence the same capacity and count before each
    logged round, as long as the rounds before it were the same.  The
    replay takes a logged round only if its bottleneck is such an
    unchanged row and every changed row with unfixed members has a share
    strictly above the round's, computed on the replayed state.  Then the
    round's minimum is the logged share: unchanged rows sit where they sat
    in the logged solve, whose minimum it was, and changed rows are above
    it, so they can neither win the round nor tie it.  Among the
    unchanged rows tied with it the logged bottleneck still comes first
    in the reference's counting order: their unfixed members are the same
    flows in the same admission order, since new flows cross only changed
    rows and are admitted last.  So the round fixes the same flows at the
    same share, with the same subtractions in the same order; its
    saturation test is taken again against this epoch's backlog, and the
    log is kept by link, so rows renumbered by a departure do not matter.
    :meth:`_rebuild` drops the log.  ``rounds_replayed`` and
    ``rounds_solved`` count the rounds each way.
    """

    name = "indexed"

    def __init__(self) -> None:
        self._capacities: Dict[Link, float] = {}
        self._rebuild({})
        #: Rounds taken from the last solve's log, and rounds run afresh.
        self.rounds_replayed = 0
        self.rounds_solved = 0

    def bind(self, capacities: Dict[Link, float]) -> None:
        self._capacities = capacities
        self._rebuild({})

    def solve(
        self,
        flow_links: Dict[int, List[Link]],
        remaining_bytes: Optional[Dict[int, float]] = None,
    ) -> Tuple[Dict[int, float], Set[Link]]:
        self._sync(flow_links)
        return self._water_fill(len(flow_links), remaining_bytes)

    def _water_fill(
        self, unfixed: int, remaining_bytes: Optional[Dict[int, float]]
    ) -> Tuple[Dict[int, float], Set[Link]]:
        """Run the reference's rounds over the link index until all
        ``unfixed`` flows have a rate, after replaying the rounds of the
        last contended solve that this epoch's changes cannot affect."""
        saturated: Set[Link] = set()
        infinity = float("inf")
        rates: Dict[int, float] = {}
        flows = self._flows
        flow_rows = self._rows
        links = self._links
        members = self._members
        caps = list(map(self._capacities.__getitem__, links))
        counts = list(map(len, members))
        fixed = self._vacant[:]  # vacated slots count as fixed
        log = self._replay(caps, counts, fixed, rates, saturated, remaining_bytes)
        replayed = len(log)
        if replayed:
            unfixed -= len(rates)
            # Rows drained by the replay have a count of 0.
            shares = [
                cap / count if count else infinity
                for cap, count in zip(caps, counts)
            ]
        else:
            shares = list(map(truediv, caps, counts))
        cursors: List[int] = []
        head = 0  # no slot before it is unfixed
        tied: List[int] = []
        share = infinity
        if len(links) >= _HEAP_MIN_ROWS:
            levels = _ShareLevels(shares)
            keys = levels.keys
            enter = levels.enter
        else:
            levels = None
            keys = [-infinity] * len(links)  # no share falls below these

        while unfixed:
            if not tied:
                if levels is None:
                    # No rows when every path is empty: nothing to fix.
                    share = min(shares, default=infinity)
                    if share == infinity:  # only unconstrained flows remain
                        break
                    row = shares.index(share)
                    ties = shares.count(share)
                    if ties > 1:
                        tied = [row]
                        for _ in range(ties - 1):
                            row = shares.index(share, row + 1)
                            tied.append(row)
                else:
                    share, tied = levels.pop_minimum()
                    if share == infinity:  # only unconstrained flows remain
                        break
                    if len(tied) == 1:
                        row = tied.pop()
            if tied:
                # The reference's counting order: the tied link first seen
                # scanning unfixed flows in admission order, links in path
                # order.  Often the first unfixed flow crosses one.
                while fixed[head]:
                    head += 1
                for row in flow_rows[head]:
                    if shares[row] == share:
                        break
                else:
                    if not cursors:
                        cursors = [0] * len(links)
                    first = len(flows)
                    for candidate in tied:
                        listed = members[candidate]
                        at = cursors[candidate]
                        while fixed[listed[at]]:
                            at += 1
                        cursors[candidate] = at
                        if listed[at] < first:
                            first = listed[at]
                    for row in flow_rows[first]:
                        if shares[row] == share:
                            break
                share = shares[row]
            fixed_now = []
            for slot in members[row]:
                if not fixed[slot]:  # a detour lists its flow twice
                    fixed[slot] = True
                    fixed_now.append(slot)
            link = links[row]
            log.append((link, share, fixed_now))
            if counts[row] >= MIN_CONTENDERS_FOR_CONGESTION and self._backlogged(
                link, fixed_now, remaining_bytes
            ):
                saturated.add(link)
            shares[row] = infinity  # every flow on it is fixed now
            low = False  # a touched row reached the share or fell below it
            for slot in fixed_now:
                rates[flows[slot]] = share
                for touched in flow_rows[slot]:
                    if touched == row:
                        continue
                    cap = caps[touched] - share
                    if not cap > 0.0:  # max(0.0, cap), NaN included
                        cap = 0.0
                    caps[touched] = cap
                    count = counts[touched] - 1
                    counts[touched] = count
                    level = cap / count if count else infinity
                    shares[touched] = level
                    if level <= share and (level < share or touched not in tied):
                        low = True
                    if level < keys[touched]:  # lowered by rounding
                        enter(touched, level)
            unfixed -= len(fixed_now)
            if tied and unfixed:
                # The chain goes on while the tied set is exact: untouched
                # rows keep their shares, and no other touched row may
                # have reached the tied share or fallen below it.  Tied
                # rows that leave it go back to the heap.
                if levels is not None:
                    levels.enter_all([r for r in tied if shares[r] != share])
                tied = [r for r in tied if shares[r] == share]
                if tied and low:
                    if levels is not None:
                        levels.enter_all(tied)
                    tied = []
        if unfixed:
            for slot, flow_id in enumerate(flows):
                if not fixed[slot]:
                    rates[flow_id] = infinity
        self.rounds_replayed += replayed
        self.rounds_solved += len(log) - replayed
        self._log = log if self._slot_of else []
        return rates, saturated

    def _replay(
        self,
        caps: List[float],
        counts: List[int],
        fixed: List[bool],
        rates: Dict[int, float],
        saturated: Set[Link],
        remaining_bytes: Optional[Dict[int, float]],
    ) -> List[Tuple[Link, float, List[int]]]:
        """Replay the last contended solve's rounds up to the first one
        this epoch's changes can affect; return the rounds replayed.

        A round is replayed as the loop ran it: its bottleneck row is
        drained (count 0), its fixed slots' rows take the same clamped
        subtractions in the same order, and the saturation test is taken
        again against this epoch's ``remaining_bytes``.  The replay stops
        at a round whose link is no longer a row or is a changed one, or
        once some changed row in use is not strictly above its share.
        """
        log = self._log
        if not log:
            return []
        row_of = self._row_of
        flows = self._flows
        flow_rows = self._rows
        changed = {row_of[link] for link in self._changed if link in row_of}
        floor = min(
            [caps[row] / counts[row] for row in changed], default=float("inf")
        )
        replayed = 0
        for link, share, fixed_now in log:
            row = row_of.get(link)
            if row is None or row in changed or not floor > share:
                break
            for slot in fixed_now:
                fixed[slot] = True
            if counts[row] >= MIN_CONTENDERS_FOR_CONGESTION and self._backlogged(
                link, fixed_now, remaining_bytes
            ):
                saturated.add(link)
            counts[row] = 0
            moved_floor = False
            for slot in fixed_now:
                rates[flows[slot]] = share
                for touched in flow_rows[slot]:
                    if touched == row:
                        continue
                    cap = caps[touched] - share
                    if not cap > 0.0:
                        cap = 0.0
                    caps[touched] = cap
                    counts[touched] -= 1
                    if touched in changed:
                        moved_floor = True
            if moved_floor:
                floor = min(
                    [caps[r] / counts[r] for r in changed if counts[r]],
                    default=float("inf"),
                )
            replayed += 1
        return log[:replayed]

    def _backlogged(
        self,
        link: Link,
        fixed_now: List[int],
        remaining_bytes: Optional[Dict[int, float]],
    ) -> bool:
        """The reference's backlog test for a bottleneck whose unfixed
        flows are the ``fixed_now`` slots (passed without backlogs)."""
        if remaining_bytes is None:
            return True
        flows = self._flows
        backlog = sum(remaining_bytes.get(flows[slot], 0.0) for slot in fixed_now)
        return backlog / self._capacities[link] >= CONGESTION_BACKLOG_THRESHOLD

    # --- the kept link index -------------------------------------------------

    def _sync(self, flow_links: Dict[int, List[Link]]) -> None:
        """Bring the link index up to date with ``flow_links``.

        Flows new since the last contended solve take fresh slots at the
        end, departed ones vacate theirs, and rerouted ones (a path that
        differs by value from the kept copy) are relisted at their slot.
        The index is rebuilt instead when admission order has changed
        (survivors out of slot order, or a known flow after a new one),
        when fewer than two flows stay as they were per flow that changes,
        when vacated slots would outnumber kept ones, or when the epoch is
        too small to be worth keeping.
        """
        slot_of = self._slot_of
        if slot_of and len(flow_links) >= _KEEP_INDEX_MIN_FLOWS:
            paths = self._paths
            fresh: List[int] = []
            moved: List[int] = []
            last = -1
            for flow_id, path in flow_links.items():
                slot = slot_of.get(flow_id)
                if slot is None:
                    fresh.append(flow_id)
                elif fresh or slot < last:
                    break
                else:
                    last = slot
                    # Kept copies are tuples, like the fabric's links; a
                    # list equal by value is no move either.
                    kept_path = paths[slot]
                    if path != kept_path and tuple(path) != kept_path:
                        moved.append(slot)
            else:
                kept = len(flow_links) - len(fresh)
                departed = len(slot_of) - kept
                changed = departed + len(moved) + len(fresh)
                unchanged = kept - len(moved)
                vacated = len(self._flows) - kept
                if 2 * changed <= unchanged and vacated <= kept:
                    self._update(flow_links, fresh, moved, departed)
                    return
        self._rebuild(flow_links)

    def _rebuild(self, flow_links: Dict[int, List[Link]]) -> None:
        """Index ``flow_links`` from scratch: slots in admission order,
        rows in order of first use."""
        # The listing is inlined rather than left to _list: epochs below
        # _KEEP_INDEX_MIN_FLOWS come through here on every solve.
        flows = list(flow_links)
        flow_rows: List[List[int]] = []
        row_of: Dict[Link, int] = {}
        links: List[Link] = []
        members: List[List[int]] = []
        for slot, path in enumerate(flow_links.values()):
            rows = []
            for link in path:
                row = row_of.get(link)
                if row is None:
                    row = row_of[link] = len(links)
                    links.append(link)
                    members.append([slot])
                else:
                    members[row].append(slot)
                rows.append(row)
            flow_rows.append(rows)
        self._flows = flows  # slot -> flow id
        self._rows = flow_rows  # slot -> row per traversal
        self._links = links  # row -> link
        self._row_of = row_of
        self._members = members  # row -> slots, ascending, per traversal
        self._vacant = [False] * len(flows)  # slot -> its flow departed
        # What the next solve compares against, for epochs big enough to
        # keep their index.
        keep = len(flows) >= _KEEP_INDEX_MIN_FLOWS
        self._slot_of = dict(zip(flows, range(len(flows)))) if keep else {}
        self._paths = list(map(tuple, flow_links.values())) if keep else []
        # The last contended solve's rounds, (link, share, fixed slots),
        # and the links whose members changed since.
        self._log: List[Tuple[Link, float, List[int]]] = []
        self._changed: Set[Link] = set()

    def _update(
        self,
        flow_links: Dict[int, List[Link]],
        fresh: List[int],
        moved: List[int],
        departed: int,
    ) -> None:
        """Apply departures, reroutes and arrivals to the kept index."""
        flows = self._flows
        slot_of = self._slot_of
        paths = self._paths
        flow_rows = self._rows
        vacant = self._vacant
        emptied: Set[int] = set()
        changed = self._changed = set()
        if departed:
            for flow_id in [f for f in slot_of if f not in flow_links]:
                slot = slot_of.pop(flow_id)
                self._unlist(slot, emptied)
                changed.update(paths[slot])
                paths[slot] = ()
                flow_rows[slot] = []
                vacant[slot] = True
        for slot in moved:
            self._unlist(slot, emptied)
            changed.update(paths[slot])
            path = flow_links[flows[slot]]
            changed.update(path)
            flow_rows[slot] = self._list(slot, path)
            paths[slot] = tuple(path)
        for flow_id in fresh:
            slot = slot_of[flow_id] = len(flows)
            path = flow_links[flow_id]
            changed.update(path)
            flows.append(flow_id)
            flow_rows.append(self._list(slot, path))
            paths.append(tuple(path))
            vacant.append(False)
        if emptied:
            self._drop_rows(emptied)

    def _list(self, slot: int, path: List[Link]) -> List[int]:
        """Add a slot to its links' member lists, keeping them ascending,
        and return its rows."""
        row_of = self._row_of
        links = self._links
        members = self._members
        rows = []
        for link in path:
            row = row_of.get(link)
            if row is None:
                row = row_of[link] = len(links)
                links.append(link)
                members.append([slot])
            else:
                listed = members[row]
                if not listed or listed[-1] <= slot:
                    listed.append(slot)
                else:
                    insort(listed, slot)
            rows.append(row)
        return rows

    def _unlist(self, slot: int, emptied: Set[int]) -> None:
        """Remove a slot from its links' member lists, once per traversal."""
        members = self._members
        for row in self._rows[slot]:
            listed = members[row]
            listed.remove(slot)
            if not listed:
                emptied.add(row)

    def _drop_rows(self, emptied: Set[int]) -> None:
        """Drop rows left without members; the last row fills each gap."""
        links = self._links
        members = self._members
        row_of = self._row_of
        flow_rows = self._rows
        for row in sorted(emptied, reverse=True):
            if members[row]:  # listed again after it emptied
                continue
            del row_of[links[row]]
            last = len(links) - 1
            if row != last:
                link = links[row] = links[last]
                row_of[link] = row
                members[row] = members[last]
                for slot in set(members[row]):
                    flow_rows[slot] = [
                        row if r == last else r for r in flow_rows[slot]
                    ]
            links.pop()
            members.pop()


class _ShareLevels:
    """The fair shares of one solve as a lazy min-heap of share levels.

    Each distinct share value is on the heap once, with the rows that
    have an entry at it in ``rows_at``, so the rows tied at the minimum
    come off in one pop and filing a row at a level already on the heap
    is a list append.  ``keys`` maps a row to the level of its live
    entry, or ``-inf`` while the row is out of the heap (taken at the
    minimum, or tied); a drained row (``inf``) never gets an entry.
    Water-filling only raises a share, except by rounding, so a live
    row's key is a floor under its current share: a row whose share rises
    keeps its entry, and the solve's update loop files a row whose share
    fell below its key as it writes the share.  :meth:`pop_minimum`
    settles entries lazily as their level comes up.
    """

    __slots__ = ("heap", "rows_at", "keys", "shares")

    def __init__(self, shares: List[float]) -> None:
        rows_at: Dict[float, List[int]] = {}
        infinity = float("inf")
        for row, share in enumerate(shares):
            if share == infinity:  # drained
                continue
            rows = rows_at.get(share)
            if rows is None:
                rows_at[share] = [row]
            else:
                rows.append(row)
        self.heap = list(rows_at)
        heapify(self.heap)
        self.rows_at = rows_at
        self.keys = shares[:]
        self.shares = shares  # the solve's share list, read live

    def enter(self, row: int, share: float) -> None:
        """File ``row`` at ``share``; any older entry of it goes stale."""
        self.keys[row] = share
        rows = self.rows_at.get(share)
        if rows is None:
            self.rows_at[share] = [row]
            heappush(self.heap, share)
        else:
            rows.append(row)

    def enter_all(self, rows: List[int]) -> None:
        """File each of ``rows`` at its current share, unless drained."""
        shares = self.shares
        for row in rows:
            if shares[row] != float("inf"):
                self.enter(row, shares[row])

    def pop_minimum(self) -> Tuple[float, List[int]]:
        """Take every row at the smallest share out of the heap.

        Returns that share and its rows; the share is ``inf`` once no row
        with a finite share is left.  On the way, an entry is valid when
        its row's share still equals its level; a row whose share rose
        since is filed again at its current share, and an entry whose row
        has drained (``inf``), was filed elsewhere, or is already out of
        the heap is dropped.
        """
        heap = self.heap
        rows_at = self.rows_at
        keys = self.keys
        shares = self.shares
        infinity = float("inf")
        while heap:
            level = heappop(heap)
            taken = []
            for row in rows_at.pop(level):
                if keys[row] != level:
                    continue  # filed elsewhere, or out of the heap
                share = shares[row]
                if share == level:
                    keys[row] = -infinity
                    taken.append(row)
                elif share != infinity:  # it rose since
                    self.enter(row, share)
            if taken:
                return level, taken
        return infinity, []
