"""One exact min-cost flow for the abelian norm and the ``wmember`` cut.

Each node has a supply and a demand, and each arc a cost and no capacity
limit.  Successive shortest paths: each round runs Bellman-Ford on the
residual network from every node with supply left (an arc forward at its
cost, and an arc that carries flow backward at minus its cost), and
ships as much as it can along a cheapest path to the nearest node with
demand left.  With costs >= 0 no residual network has a negative cycle,
so every flow reached is cheapest for its value (R. G. Busacker and
P. J. Gowen 1960).  It stops when the supply runs out or no demand can
be reached; then no arc leaves the set of nodes the remaining supply
still reaches, and no flow enters it.  Costs are used only through
``+``, ``-`` and ``<``, so ``Fraction`` costs stay exact.
"""


def min_cost_flow(supply: dict, demand: dict,
                  arcs: dict) -> tuple[dict, frozenset]:
    """A cheapest flow that ships as much supply into demand as the arcs
    allow, for node -> units maps and an (x, y) -> cost map.  Returns
    the units on each arc, in ``arcs`` order, and the nodes the remaining
    supply still reaches (empty when none is left).  Ties go to the first
    nearest demand in ``demand`` order.
    """
    supply, demand = dict(supply), dict(demand)
    flow = dict.fromkeys(arcs, 0)
    while any(supply.values()):
        residual = [(x, y, cost, 1) for (x, y), cost in arcs.items()]
        residual += [(y, x, -cost, -1) for (x, y), cost in arcs.items()
                     if flow[x, y]]
        # reached node -> (previous node, +1 along an arc, -1 back along
        # one that carries flow); None for a node whose supply is left
        dist = {x: 0 for x, left in supply.items() if left}
        prev = dict.fromkeys(dist)
        changed = True
        while changed:
            changed = False
            for x, y, cost, sign in residual:
                if x in dist:
                    reach = dist[x] + cost
                    if y not in dist or reach < dist[y]:
                        dist[y], prev[y] = reach, (x, sign)
                        changed = True
        ends = [y for y, left in demand.items() if left and y in dist]
        if not ends:
            return flow, frozenset(dist)
        end = min(ends, key=dist.__getitem__)
        amount, y, path = demand[end], end, []
        while prev[y] is not None:
            x, sign = prev[y]
            arc = (x, y) if sign > 0 else (y, x)
            if sign < 0:
                amount = min(amount, flow[arc])
            path.append((arc, sign))
            y = x
        amount = min(amount, supply[y])
        supply[y] -= amount
        demand[end] -= amount
        for arc, sign in path:
            flow[arc] += sign * amount
    return flow, frozenset()
