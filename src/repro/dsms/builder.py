"""Prebuilt query networks.

:func:`identification_network` reconstructs the role of the paper's
14-operator Borealis network (Section 4.2): fixed per-operator CPU costs and
filter selectivities pinned by uniformly distributed input values, so the
expected cost per source tuple is a known constant. The paper's network has
capacity ~190 tuples/s at H=1, i.e. an expected cost of ~5.26 ms/tuple; we
solve for the per-operator cost that yields any requested capacity.

:func:`monitoring_network` is a richer branched network with a window join
and an aggregate, used by the examples (network-monitoring style queries as
in the paper's introduction).
"""

from __future__ import annotations

from ..errors import NetworkError
from .network import QueryNetwork
from .operators.stateless import FilterOperator, MapOperator, UnionOperator
from .operators.windowed import AggregateOperator, WindowJoinOperator
from .operators.base import Sink

#: default capacity of the identification network at H = 1 (paper: ~190/s)
DEFAULT_CAPACITY = 190.0


def identification_network(capacity: float = DEFAULT_CAPACITY) -> QueryNetwork:
    """A 14-operator branched network with constant expected per-tuple cost.

    Structure (one source; a split after ``m2`` copies tuples down both
    branches, re-merged by a union, mirroring paths I/III of the paper's
    Fig. 2)::

        src -> f1 -> m2 -+-> f3 -> m4 -> m5 -+-> u9 -> m10 -> f11 -> m12 -> m13 -> m14
                         +-> f6 -> m7 -> m8 -+

    Each filter tests a *different* value field (f1 -> field 0, f3 -> 1,
    f6 -> 2, f11 -> 3) so the predicates stay independent; feed the network
    tuples with at least four fields uniform on [0, 1) (see
    :func:`repro.workloads.arrivals.uniform_values`) and each filter's
    selectivity equals its threshold exactly. All operators share one cost
    ``kappa`` chosen so the expected total cost per source tuple is
    ``1 / capacity`` CPU seconds.
    """
    if capacity <= 0:
        raise NetworkError(f"capacity must be positive, got {capacity}")
    sel = {"f1": 0.9, "f3": 0.8, "f6": 0.7, "f11": 0.85}

    # expected visits per operator for this fixed structure
    visits = {}
    visits["f1"] = 1.0
    visits["m2"] = sel["f1"]
    visits["f3"] = visits["m2"]
    visits["m4"] = visits["m2"] * sel["f3"]
    visits["m5"] = visits["m4"]
    visits["f6"] = visits["m2"]
    visits["m7"] = visits["m2"] * sel["f6"]
    visits["m8"] = visits["m7"]
    visits["u9"] = visits["m5"] + visits["m8"]
    visits["m10"] = visits["u9"]
    visits["f11"] = visits["u9"]
    visits["m12"] = visits["u9"] * sel["f11"]
    visits["m13"] = visits["m12"]
    visits["m14"] = visits["m12"]
    total_visits = sum(visits.values())
    kappa = (1.0 / capacity) / total_visits

    net = QueryNetwork("identification-14op")
    net.add_source("src")
    net.add_operator(FilterOperator.threshold("f1", kappa, sel["f1"], field=0), ["src"])
    net.add_operator(MapOperator("m2", kappa), ["f1"])
    net.add_operator(FilterOperator.threshold("f3", kappa, sel["f3"], field=1), ["m2"])
    net.add_operator(MapOperator("m4", kappa), ["f3"])
    net.add_operator(MapOperator("m5", kappa), ["m4"])
    net.add_operator(FilterOperator.threshold("f6", kappa, sel["f6"], field=2), ["m2"])
    net.add_operator(MapOperator("m7", kappa), ["f6"])
    net.add_operator(MapOperator("m8", kappa), ["m7"])
    u9 = UnionOperator("u9", kappa)
    net.add_operator(u9, ["m5", "m8"])
    net.add_operator(MapOperator("m10", kappa), ["u9"])
    net.add_operator(FilterOperator.threshold("f11", kappa, sel["f11"], field=3), ["m10"])
    net.add_operator(MapOperator("m12", kappa), ["f11"])
    net.add_operator(MapOperator("m13", kappa), ["m12"])
    net.add_operator(MapOperator("m14", kappa), ["m13"])
    return net


def chain_network(n_operators: int = 5, capacity: float = DEFAULT_CAPACITY,
                  selectivity: float = 1.0) -> QueryNetwork:
    """An unbranched chain of map/filter operators (paper Fig. 2 path II).

    When ``selectivity < 1`` the chain is built of filters, filter ``i``
    testing value field ``i`` (tuples must carry ``n_operators`` independent
    uniform fields for the configured selectivity to be realized).
    """
    if n_operators < 1:
        raise NetworkError("chain needs at least one operator")
    if not 0.0 < selectivity <= 1.0:
        raise NetworkError(f"selectivity {selectivity} outside (0, 1]")
    # expected visits: 1, s, s^2, ... -> geometric sum
    if selectivity == 1.0:
        total_visits = float(n_operators)
    else:
        total_visits = (1 - selectivity ** n_operators) / (1 - selectivity)
    kappa = (1.0 / capacity) / total_visits
    net = QueryNetwork(f"chain-{n_operators}")
    net.add_source("src")
    upstream = "src"
    for i in range(n_operators):
        if selectivity < 1.0:
            op = FilterOperator.threshold(f"op{i}", kappa, selectivity, field=i)
        else:
            op = MapOperator(f"op{i}", kappa)
        net.add_operator(op, [upstream])
        upstream = op.name
    return net


def monitoring_network(capacity: float = DEFAULT_CAPACITY,
                       join_window: float = 5.0,
                       aggregate_window: float = 1.0) -> QueryNetwork:
    """A two-source network with a window join and an aggregate.

    Shaped after the paper's motivating applications (network monitoring for
    intrusion detection): a flow stream joined against an alert stream,
    plus a per-second aggregate path. Costs are normalized so one tuple on
    the *flow* source has an expected cost near ``1/capacity``.
    """
    base = 1.0 / capacity
    net = QueryNetwork("monitoring")
    net.add_source("flows")
    net.add_source("alerts")
    # flow path: sanitize -> suspicious filter -> join with alerts
    net.add_operator(MapOperator("sanitize", 0.15 * base), ["flows"])
    net.add_operator(
        FilterOperator("suspicious", 0.2 * base,
                       lambda v: v[0] < 0.5),
        ["sanitize"],
    )
    net.add_operator(
        WindowJoinOperator("match_alerts", 0.25 * base, join_window,
                           key=lambda v: int(v[1]) if len(v) > 1 else 0),
        ["suspicious", "alerts"],
    )
    net.add_operator(Sink("alarm_out"), ["match_alerts"])
    # aggregate path: per-window tuple counts
    net.add_operator(
        AggregateOperator("traffic_stats", 0.2 * base, aggregate_window,
                          fn=lambda rows: (len(rows),)),
        ["sanitize"],
    )
    net.add_operator(Sink("stats_out"), ["traffic_stats"])
    return net
