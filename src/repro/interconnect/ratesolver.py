"""Pluggable max-min fair rate solvers for the fabric simulator.

The progressive-filling loop in :class:`~repro.interconnect.fabric.FabricSimulator`
re-solves a max-min fair (water-filling) allocation on every epoch — each
arrival, completion and link event.  This module separates that algorithm
from the simulator behind a small protocol so the congestion model is
fast-but-swappable, mirroring the paper's argument that diversified
substrates need portable software interfaces:

* :class:`RateSolver` — the protocol: ``bind(capacities)`` once per
  topology state, then ``solve(flow_links, remaining_bytes)`` per epoch.
* :class:`ReferenceSolver` (``"reference"``) — the original pure-Python
  loop, extracted verbatim from ``FabricSimulator._max_min_rates``.  It is
  the semantic ground truth (the oracle every other solver is checked
  against) and recounts link users over every unfixed flow each round.
* :class:`IndexedSolver` (``"indexed"``, the default) — the same rounds
  over a link index built once per solve: each round takes a C-level
  ``min`` over the fair shares and updates only the links the fixed flows
  cross.  An epoch whose flows share no link (most low-concurrency
  epochs) skips the rounds: each flow gets its path's smallest capacity.
  Pure Python and stateless between epochs.
* :class:`NumpySolver` (``"numpy"``, opt-in) — vectorised water-filling
  over a link×flow incidence matrix maintained *incrementally* across
  epochs: per-link membership columns are only rebuilt for flows whose
  link set changed, so a completion-only epoch touches just the dirty
  links.  It pays numpy's per-call overhead on every round, so it beats
  the reference only at high concurrency and ``"indexed"`` at none
  measured (see ``docs/performance.md``).

All solvers compute **bit-identical** results: each replicates the
reference's round structure, its first-insertion-order bottleneck
tie-break, its sequential clamped capacity updates and its backlog
summation order, so rates *and* the saturated-link set agree to the last
bit (verified by :func:`repro.validate.differential.check_solvers`).

Solvers are single-simulator.  ``bind`` resets any incremental state, and
the fabric rebinds after every topology mutation (link flaps, degraded
fabrics), invalidating the numpy incidence structure the same way the
shared :class:`~repro.interconnect.routecache.RouteCache` is invalidated.

Registry
--------
``get_solver(name)`` returns a fresh instance of any name in
:data:`SOLVERS`; :func:`register_solver` adds custom implementations, and
:func:`set_default_solver` selects the process-wide default used when a
:class:`~repro.interconnect.fabric.FabricSimulator` is built without an
explicit ``solver=``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.errors import ConfigurationError

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

    #: Registry name; set by :func:`register_solver`.
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


#: Registered solver factories by name (see :func:`register_solver`).
SOLVERS: Dict[str, Callable[[], "RateSolver"]] = {}

_DEFAULT_SOLVER = "indexed"


def register_solver(name: str) -> Callable[[Callable[[], RateSolver]], Callable[[], RateSolver]]:
    """Decorator: register a solver factory (usually a class) under ``name``."""

    def wrap(factory: Callable[[], RateSolver]) -> Callable[[], RateSolver]:
        SOLVERS[name] = factory
        if isinstance(factory, type):
            factory.name = name
        return factory

    return wrap


def get_solver(name: str) -> RateSolver:
    """Instantiate the registered solver ``name``.

    Every call returns a *fresh* instance — solvers are stateful and bound
    to one simulator at a time.  Unknown names raise
    :class:`~repro.core.errors.ConfigurationError` listing what is known.
    """
    try:
        factory = SOLVERS[name]
    except KeyError:
        known = ", ".join(sorted(SOLVERS))
        raise ConfigurationError(
            f"unknown rate solver {name!r}; registered: {known}"
        ) from None
    solver = factory()
    if not isinstance(solver, RateSolver):
        raise ConfigurationError(
            f"solver factory {name!r} returned {type(solver).__name__}, "
            "not a RateSolver"
        )
    return solver


def default_solver_name() -> str:
    """The process-wide default solver name (``"indexed"`` unless set)."""
    return _DEFAULT_SOLVER


def set_default_solver(name: str) -> str:
    """Set the process-wide default solver; returns the previous default.

    This is what ``--solver`` on ``repro profile`` / ``repro faults``
    adjusts: simulators built without an explicit ``solver=`` pick it up.
    The name is validated against the registry immediately.
    """
    global _DEFAULT_SOLVER
    if name not in SOLVERS:
        known = ", ".join(sorted(SOLVERS))
        raise ConfigurationError(
            f"unknown rate solver {name!r}; registered: {known}"
        )
    previous = _DEFAULT_SOLVER
    _DEFAULT_SOLVER = name
    return previous


def resolve_solver(solver: object) -> RateSolver:
    """Coerce ``solver`` (None | name | instance) into a bound-ready instance."""
    if solver is None:
        return get_solver(_DEFAULT_SOLVER)
    if isinstance(solver, str):
        return get_solver(solver)
    if isinstance(solver, RateSolver):
        return solver
    raise ConfigurationError(
        f"solver must be a name or RateSolver instance, got {type(solver).__name__}"
    )


# --- the reference implementation ----------------------------------------------


@register_solver("reference")
class ReferenceSolver(RateSolver):
    """The original pure-Python water-filling loop (semantic ground truth).

    Extracted verbatim from ``FabricSimulator._max_min_rates``; every other
    solver must agree with it bit-for-bit on rates and on the saturated
    set.  It has no incremental state and no third-party dependencies.
    """

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


@register_solver("indexed")
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


# --- the vectorised incremental implementation ---------------------------------


@register_solver("numpy")
class NumpySolver(RateSolver):
    """Vectorised water-filling over an incrementally-maintained incidence.

    State across epochs (reset by :meth:`bind`) — a sparse link×flow
    incidence held from both sides:

    * a link index assigned from the capacity map's insertion order,
    * per-flow row arrays (each flow's links as index vectors, with
      multiplicity — Valiant detours can cross a link twice),
    * per-link member sets (which flows cross each link), and
    * a per-link user-count vector summed over all active flows.

    :meth:`solve` diffs the incoming ``flow_links`` against the tracked
    set **by list identity** (the fabric replaces, never mutates, a flow's
    decomposition) and rebuilds only the rows/members of flows that were
    added, completed or re-routed; the links those touch are the epoch's
    *dirty links* (exposed in :attr:`stats` for the white-box tests).  A
    completion-only epoch therefore updates just the completed flows'
    links instead of recounting the whole fabric.

    Exactness: each solve round computes fair shares with one vectorised
    divide (IEEE-identical to the reference's scalar divides), picks the
    bottleneck by minimum share with the reference's first-insertion-order
    tie-break (first hit scanning unfixed flows in admission order, links
    in path order), and replays the reference's *sequential* clamped
    capacity subtractions — so results are bit-identical, not merely close.

    numpy is imported lazily at construction: ``get_solver("reference")``
    and the default fabric path never touch it.
    """

    def __init__(self) -> None:
        try:
            import numpy
        except ImportError as error:  # pragma: no cover - exercised via stub
            raise ConfigurationError(
                "the 'numpy' rate solver requires numpy; install it or use "
                "solver='reference'"
            ) from error
        self._np = numpy
        #: White-box counters for the incremental path (tests + docs).
        self.stats: Dict[str, int] = {
            "binds": 0,
            "epochs": 0,
            "flows_added": 0,
            "flows_removed": 0,
            "dirty_links": 0,
            "last_dirty_links": 0,
        }
        self._reset()

    # -- incidence maintenance --------------------------------------------------

    def _reset(self) -> None:
        np = self._np
        self._capacities: Dict[Link, float] = {}
        self._links: List[Link] = []
        self._link_index: Dict[Link, int] = {}
        self._cap0 = np.empty(0, dtype=np.float64)
        self._users = np.empty(0, dtype=np.int64)
        self._shares = np.empty(0, dtype=np.float64)
        self._link_members: List[Set[int]] = []
        self._flow_rows: Dict[int, object] = {}
        self._flow_rowlists: Dict[int, List[int]] = {}
        self._flow_objs: Dict[int, List[Link]] = {}

    def bind(self, capacities: Dict[Link, float]) -> None:
        """(Re)build the link index; drops all tracked flows.

        Called on construction and after every topology mutation — the
        incidence refers to link rows that may no longer exist, so the
        whole structure is invalidated, exactly like the route cache.
        """
        np = self._np
        self._reset()
        self._capacities = capacities
        self._links = list(capacities)
        self._link_index = {link: row for row, link in enumerate(self._links)}
        self._cap0 = np.fromiter(
            capacities.values(), dtype=np.float64, count=len(self._links)
        )
        self._users = np.zeros(len(self._links), dtype=np.int64)
        self._shares = np.empty(len(self._links), dtype=np.float64)
        self._link_members = [set() for _ in self._links]
        self.stats["binds"] += 1

    def _add_flow(self, flow_id: int, links: List[Link], dirty: Set[int]) -> None:
        np = self._np
        index = self._link_index
        row_list = [index[link] for link in links]
        # Scalar updates beat vectorised scatter-adds for these short
        # (path-length) rows; ``users`` counts traversals (multiplicity),
        # the member sets record membership only.
        users = self._users
        members = self._link_members
        for row in row_list:
            users[row] += 1
            members[row].add(flow_id)
        dirty.update(row_list)
        self._flow_rows[flow_id] = np.array(row_list, dtype=np.intp)
        self._flow_rowlists[flow_id] = row_list
        self._flow_objs[flow_id] = links
        self.stats["flows_added"] += 1

    def _remove_flow(self, flow_id: int, dirty: Set[int]) -> None:
        self._flow_rows.pop(flow_id)
        row_list = self._flow_rowlists.pop(flow_id)
        del self._flow_objs[flow_id]
        users = self._users
        members = self._link_members
        for row in row_list:
            users[row] -= 1
            members[row].discard(flow_id)
        dirty.update(row_list)
        self.stats["flows_removed"] += 1

    def _sync(self, flow_links: Dict[int, List[Link]]) -> None:
        """Diff the epoch's flow set against the tracked incidence."""
        dirty: Set[int] = set()
        tracked = self._flow_objs
        if len(tracked) > len(flow_links) or any(
            flow_id not in flow_links for flow_id in tracked
        ):
            for flow_id in [f for f in tracked if f not in flow_links]:
                self._remove_flow(flow_id, dirty)
        for flow_id, links in flow_links.items():
            previous = tracked.get(flow_id)
            if previous is links:
                continue
            if previous is not None:  # re-routed: its link list was replaced
                self._remove_flow(flow_id, dirty)
            self._add_flow(flow_id, links, dirty)
        touched = len(dirty)
        self.stats["last_dirty_links"] = touched
        self.stats["dirty_links"] += touched
        self.stats["epochs"] += 1

    # -- the solve --------------------------------------------------------------

    def solve(
        self,
        flow_links: Dict[int, List[Link]],
        remaining_bytes: Optional[Dict[int, float]] = None,
    ) -> Tuple[Dict[int, float], Set[Link]]:
        np = self._np
        self._sync(flow_links)
        rates: Dict[int, float] = {}
        saturated: Set[Link] = set()
        count = len(flow_links)
        if not count:
            return rates, saturated

        flow_ids = list(flow_links)  # admission order
        infinity = float("inf")
        if not len(self._links):
            # Degenerate capacity map: every flow has a zero-length path.
            for flow_id in flow_ids:
                rates[flow_id] = infinity
            return rates, saturated
        link_members = self._link_members
        flow_rows = self._flow_rows
        # Divide-ready working arrays: rows with no unfixed users hold
        # (inf, 1) so the per-round fair-share pass is one unmasked
        # full-speed divide that yields inf exactly where the reference has
        # no share to offer.  Rows a round touches always have unfixed
        # users, so ``caps_div`` doubles as the remaining-capacity vector
        # and ``users_div`` as the true traversal count wherever a
        # bottleneck can be found.
        users_div = self._users.astype(np.float64)
        inactive = users_div == 0.0
        users_div[inactive] = 1.0
        caps_div = self._cap0.copy()
        caps_div[inactive] = infinity
        unfixed_ids = set(flow_ids)
        unfixed_count = count
        admission_rank: Optional[Dict[int, int]] = None
        shares = self._shares
        bincount = np.bincount
        maximum = np.maximum
        n_links = len(self._links)

        while unfixed_count:
            np.divide(caps_div, users_div, out=shares)
            bottleneck_row = int(shares.argmin())
            bottleneck_share = float(shares[bottleneck_row])
            if bottleneck_share == infinity:
                # Only zero-length paths remain: unconstrained flows.
                for flow_id in flow_ids:
                    if flow_id in unfixed_ids:
                        rates[flow_id] = infinity
                break
            tied = shares == bottleneck_share
            if np.count_nonzero(tied) > 1:
                bottleneck_row = self._tie_break(
                    tied.nonzero()[0], flow_ids, unfixed_ids
                )
            # Unfixed flows crossing the bottleneck.  Set order is fine for
            # everything below except the backlog sum, which replays the
            # reference's admission-order float additions explicitly.
            fixed_now = link_members[bottleneck_row] & unfixed_ids
            if users_div[bottleneck_row] >= MIN_CONTENDERS_FOR_CONGESTION:
                link = self._links[bottleneck_row]
                if remaining_bytes is None:
                    saturated.add(link)
                else:
                    if admission_rank is None:
                        admission_rank = {
                            flow_id: i for i, flow_id in enumerate(flow_ids)
                        }
                    backlog = 0.0
                    for flow_id in sorted(
                        fixed_now, key=admission_rank.__getitem__
                    ):
                        backlog += remaining_bytes.get(flow_id, 0.0)
                    drain_time = backlog / self._capacities[link]
                    if drain_time >= CONGESTION_BACKLOG_THRESHOLD:
                        saturated.add(link)
            if len(fixed_now) == 1:
                rows_all = flow_rows[next(iter(fixed_now))]
            else:
                rows_all = np.concatenate(
                    [flow_rows[f] for f in fixed_now]
                )
            pulls = bincount(rows_all, minlength=n_links)
            touched = pulls.nonzero()[0]
            pulls_touched = pulls[touched]
            new_caps = caps_div[touched]
            if len(rows_all) == len(touched):
                # Every touched link is pulled exactly once: one vectorised
                # clamped subtraction is IEEE-identical to the reference's
                # single max(0, cap - share) per link.
                new_caps -= bottleneck_share
                maximum(new_caps, 0.0, out=new_caps)
            else:
                # A link pulled k > 1 times (a Valiant detour revisiting
                # it) replays the k sequential clamped subtractions in
                # scalar Python — exact, with an early exit once a capacity
                # clamps to zero (further subtractions keep it there).
                cap_list = new_caps.tolist()
                for j, k in enumerate(pulls_touched.tolist()):
                    cap = cap_list[j]
                    for _ in range(k):
                        cap -= bottleneck_share
                        if cap <= 0.0:
                            cap = 0.0
                            break
                    cap_list[j] = cap
                new_caps = np.array(cap_list, dtype=np.float64)
            # Keep the divide pair in step: drained rows flip to (inf, 1).
            users_touched = users_div[touched]
            users_touched -= pulls_touched
            users_div[touched] = maximum(users_touched, 1.0)
            caps_div[touched] = np.where(
                users_touched == 0.0, infinity, new_caps
            )
            for flow_id in fixed_now:
                rates[flow_id] = bottleneck_share
            unfixed_ids -= fixed_now
            unfixed_count -= len(fixed_now)
        return rates, saturated

    def _tie_break(
        self, candidates: object, flow_ids: List[int], unfixed_ids: Set[int]
    ) -> int:
        """First tied link in the reference's ``link_users`` insertion order.

        The reference builds its per-round user counts by scanning unfixed
        flows in admission order and each flow's links in path order; the
        first-seen tied link wins the strict ``<`` comparison.  Replicate
        by scanning the same order and returning the first candidate hit.
        """
        tied = set(candidates.tolist())
        row_lists = self._flow_rowlists
        for flow_id in flow_ids:
            if flow_id not in unfixed_ids:
                continue
            for row in row_lists[flow_id]:
                if row in tied:
                    return row
        raise AssertionError("tied bottleneck not reachable from any flow")
