"""Exhaustive functional-graph analysis of the map x -> k(x + 1/x) on the
projective line over a small finite field.

The graph has p^n + 1 nodes: the point at infinity (node 0, always a fixed
point since both 0 and infinity map there) followed by the field elements in
ascending base-p digit order (node 1 + j holds the element with index j).
Every node has exactly one outgoing edge, so components consist of one cycle
with reversed trees hanging off the periodic nodes.

Component statistics capture the cycle length, the maximum distance of any
node from the cycle, and whether the hanging trees form perfect reversed
binary trees.  One rule covers cycle and tree nodes alike: every node has
zero or two preimages, or exactly one at the two ramified targets (the
images 2k and -2k of the critical points 1 and -1, each reached by a single
doubled preimage), and all leaves sit at the component's full depth.  This
holds for cycle nodes because in any functional graph each cycle node has
exactly one periodic preimage, so its tree preimages are its preimages
minus one: "roots one tree" is "two preimages".

Over F_p the successors come from a table of inverses mod p.  Over F_{p^n}
they come from exp/log tables on a primitive element g, in integer node
indices with no field arithmetic per node (Huber, IEEE Trans. IT 36, 1990):
for x = g^l, x + 1/x = (x^2 + 1)/x, where x^2 is g^(2l), "1 +" only bumps
the lowest base-p digit of an index, and multiplying by k and dividing by x
add and subtract logarithms.  Building the tables takes n field products.
"""

from __future__ import annotations

from array import array
from operator import mul

from .config import field_cap
from .errors import InternalConsistencyError, ResourceCapError, UsageError
from .ffpoly import (
    ModulusContext,
    Poly,
    _PackedRows,
    _Value,
    _check_odd_prime,
    _digits,
    _prime_factors,
    _trim,
    is_irreducible,
    smallest_irreducible,
)
from .qk import _check_k


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------


class FunctionalGraph(_Value):
    """Successor table of x -> k(x + 1/x) on the p^n + 1 projective points."""

    __slots__ = ("p", "n", "k", "modulus", "successors")

    def __init__(self, p: int, n: int, k: int, modulus: Poly, successors: tuple[int, ...]):
        self._set(p, n, k, modulus, successors)

    @property
    def size(self) -> int:
        return len(self.successors)

    def node_name(self, i: int) -> str:
        """Canonical node name: "inf" or the element's digits, ascending."""
        if i == 0:
            return "inf"
        if self.n == 1:
            return str(i - 1)
        return ",".join(map(str, _digits(i - 1, self.p, self.n)))


def _check_size_cap(p: int, n: int) -> None:
    limit = field_cap()
    # p^n + 1 > 2^n > limit once n >= limit.bit_length(): refuse such n
    # before computing p^n, which can take arbitrarily long
    if n >= limit.bit_length() or p**n + 1 > limit:
        raise ResourceCapError(
            f"graph on {p}^{n} + 1 nodes exceeds the configured cap {limit}; "
            "raise QKFORGE_CAP to scan larger fields"
        )


def _resolve_modulus(p: int, n: int, modulus: Poly | None) -> Poly:
    if modulus is None:
        return smallest_irreducible(p, n)
    if modulus.p != p:
        raise UsageError(f"modulus is over F_{modulus.p}, expected F_{p}")
    if modulus.degree != n:
        raise UsageError(f"modulus has degree {modulus.degree}, expected {n}")
    if not is_irreducible(modulus):
        raise UsageError("modulus must be irreducible")
    return modulus.monic()


def _checked_inputs(p: int, n: int, k: int, modulus: Poly | None) -> tuple[int, Poly]:
    """Validate a graph request; return k mod p and the monic modulus."""
    _check_odd_prime(p)
    if n < 1:
        raise UsageError("n must be >= 1")
    _check_size_cap(p, n)
    return _check_k(k, p), _resolve_modulus(p, n, modulus)


def build_graph(p: int, n: int, k: int, modulus: Poly | None = None) -> FunctionalGraph:
    """Tabulate the successor of every projective point under x -> k(x + 1/x).

    Node 0 is infinity; node 1 + j is the field element with canonical index
    j.  Both 0 and infinity map to infinity.  Fields larger than the
    configured cap are refused.
    """
    k, modulus = _checked_inputs(p, n, k, modulus)
    if n == 1:
        successors = _build_prime_field(p, k)
    else:
        successors = _successors(p, *_exp_log_tables(p, n, modulus), k)
    return FunctionalGraph(p=p, n=n, k=k, modulus=modulus, successors=successors)


def _build_prime_field(p: int, k: int) -> tuple[int, ...]:
    # inverse table: inv[i] = -(p // i) * inv[p % i] mod p
    inv = [0, 1] + [0] * (p - 2)
    for i in range(2, p):
        inv[i] = -(p // i) * inv[p % i] % p
    # infinity is fixed and the element 0 maps to infinity
    return (0, 0, *[1 + k * (x + inv[x]) % p for x in range(1, p)])


def _is_primitive(ctx: ModulusContext, x: list[int]) -> bool:
    """x generates F_q^*: x^((q-1)/r) != 1 for every prime r dividing q - 1."""
    order = ctx.p**ctx.n - 1
    return all(ctx.powmod(x, order // r) != [1] for r in _prime_factors(order))


def _exp_log_tables(p: int, n: int, modulus: Poly) -> tuple[array, array]:
    """exp[i] = index of g^i for 0 <= i < q - 1, and log, its inverse on the
    nonzero indices (log[0] = -1), for g the first primitive element in
    index order.

    Only s = (q-1)/(p-1) powers are walked, as base-p digit vectors under
    the linear map y -> y*g, applied from its packed rows.  g^s = c lies in
    F_p^*, so the rest of the table is g^(i + s*t) = c^t * g^i: multiplying
    by c permutes each digit, one table lookup per index.  The table must
    hold q - 1 distinct indices (g of order q - 1); anything else raises
    InternalConsistencyError.
    """
    ctx = ModulusContext(modulus)
    q = p**n
    # no element of F_p is primitive when n >= 2
    candidates = (_trim(_digits(j, p, n)) for j in range(p if n > 1 else 1, q))
    g = next(x for x in candidates if _is_primitive(ctx, x))
    # row c is the image of the basis element x^c
    times_g = _PackedRows([ctx.mulmod([0] * c + [1], g) for c in range(n)], n, p)
    powers = [p**r for r in range(n)]
    steps = (q - 1) // (p - 1)
    digits = [1] + [0] * (n - 1)
    exp = array("l")
    for _ in range(steps):
        exp.append(sum(map(mul, digits, powers)))
        digits = times_g.apply(digits)
    c = digits[0]
    if c == 0 or any(digits[1:]):
        raise InternalConsistencyError(f"g^{steps} is not in F_{p}^*")
    # times_c[j] = index of c * (element j), built one digit at a time
    times_c = scaled = [c * d % p for d in range(p)]
    for _ in range(n - 1):
        times_c = [lo + p * hi for hi in times_c for lo in scaled]
    for _ in range(p - 2):
        exp.extend([times_c[j] for j in exp[-steps:]])
    del times_c  # a list of q ints: free it before log is allocated
    log = array("l", [-1]) * q
    for i, j in enumerate(exp):
        log[j] = i
    if log.count(-1) != 1:
        raise InternalConsistencyError(f"{g} is not a generator of F_{q}^*")
    return exp, log


def _successors(p: int, exp: array, log: array, k: int) -> tuple[int, ...]:
    """Successor table of x -> k(x + 1/x) over F_q from the exp/log tables."""
    order = len(exp)
    log_k = log[k % p]
    top = p - 1
    # x = g^l, y = x^2 = g^(2l): x + 1/x = (1 + y)/x, and 1 + y bumps digit 0
    # of y's index.  Entry j is the successor of element j; log[0] is a dummy.
    succ = [
        1 + exp[(log_k - l + log[y + 1 if (y := exp[2 * l % order]) % p != top else y - top])
                % order]
        for l in log
    ]
    succ[0] = 0  # 0 -> infinity
    succ.insert(0, 0)  # infinity -> infinity
    # x^2 = -1 exactly at x = g^((q-1)/4) and g^(3(q-1)/4), where 1 + y is 0
    # (read above through the dummy log[0]): x + 1/x = 0, which is node 1
    if order % 4 == 0:
        succ[1 + exp[order // 4]] = succ[1 + exp[3 * order // 4]] = 1
    return tuple(succ)


# ---------------------------------------------------------------------------
# component decomposition
# ---------------------------------------------------------------------------


class ComponentStats(_Value):
    """Shape summary of one connected component."""

    __slots__ = ("cycle_length", "tree_depth", "node_count", "binary_shape_ok")

    def __init__(self, cycle_length: int, tree_depth: int, node_count: int, binary_shape_ok: bool):
        if cycle_length < 1:
            raise InternalConsistencyError("every component contains a cycle")
        if node_count < cycle_length:
            raise InternalConsistencyError("component smaller than its cycle")
        self._set(cycle_length, tree_depth, node_count, binary_shape_ok)


_ON_PATH = -2  # component id of a node on the path being walked


def _analyze(successors) -> tuple[list[int], list[int], int]:
    """Single pass over a successor table.

    Returns (distance_to_cycle, component_id, component_count); a node is
    periodic exactly when its distance is 0.  Component ids are assigned in
    order of each component's smallest node, so the component of infinity
    is always 0.
    """
    size = len(successors)
    dist = [0] * size
    comp = [-1] * size  # -1 = not reached yet
    ncomp = 0
    for start in range(size):
        if comp[start] != -1:
            continue
        path = []
        x = start
        while comp[x] == -1:
            comp[x] = _ON_PATH
            path.append(x)
            x = successors[x]
        if comp[x] == _ON_PATH:
            # new cycle discovered within the current path
            cid = ncomp
            ncomp += 1
            i = path.index(x)
            for y in path[i:]:
                comp[y] = cid
            del path[i:]
        else:
            cid = comp[x]
        d = dist[x]
        for y in reversed(path):
            d += 1
            comp[y] = cid
            dist[y] = d
    return dist, comp, ncomp


def component_stats(graph: FunctionalGraph) -> list[ComponentStats]:
    """Decompose the graph into components and summarize each one.

    binary_shape_ok reports whether the trees hanging off the cycle are
    perfect reversed binary trees: every node has zero or two preimages
    (exactly one only at a ramified target 2k or -2k), and the shallowest
    leaf sits at the component's full depth.  On a cycle node this says that
    it roots exactly one tree (none at a ramified target), since one of its
    preimages is its periodic predecessor.
    """
    succ = graph.successors
    dist, comp, ncomp = _analyze(succ)
    size = len(succ)
    preimages = [0] * size
    for y in succ:
        preimages[y] += 1
    # the node of a constant c in F_p is 1 + c
    ramified = {1 + 2 * graph.k % graph.p, 1 + -2 * graph.k % graph.p}

    cycle_len = [0] * ncomp
    depth = [0] * ncomp
    count = [0] * ncomp
    shallowest_leaf = [size] * ncomp
    shape_ok = [True] * ncomp
    for x, (c, d, m) in enumerate(zip(comp, dist, preimages)):
        count[c] += 1
        if d == 0:
            cycle_len[c] += 1
        elif d > depth[c]:
            depth[c] = d
        if m == 0:
            if d < shallowest_leaf[c]:
                shallowest_leaf[c] = d
        elif m != 2 and not (m == 1 and x in ramified):
            shape_ok[c] = False

    return [
        ComponentStats(
            cycle_length=cycle_len[c],
            tree_depth=depth[c],
            node_count=count[c],
            binary_shape_ok=shape_ok[c] and shallowest_leaf[c] >= depth[c],
        )
        for c in range(ncomp)
    ]


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def _node_label(graph: FunctionalGraph, i: int) -> str:
    if i == 0:
        return "inf"
    if graph.n == 1:
        return str(i - 1)
    terms = []
    for e, d in enumerate(_digits(i - 1, graph.p, graph.n)):
        if d == 0:
            continue
        if e == 0:
            terms.append(str(d))
        elif e == 1:
            terms.append("a" if d == 1 else f"{d}a")
        else:
            terms.append(f"a^{e}" if d == 1 else f"{d}a^{e}")
    return "+".join(terms) if terms else "0"


def export_dot(graph: FunctionalGraph, labels: bool = False) -> str:
    """Render the graph as deterministic DOT text.

    Nodes are named by their canonical representatives ("inf" for infinity)
    and emitted in index order, then one edge per node in the same order.
    With labels=True each node carries a human-readable label attribute.
    """
    names = [graph.node_name(i) for i in range(graph.size)]
    lines = ["digraph qkforge {"]
    for i, name in enumerate(names):
        if labels:
            lines.append(f'  "{name}" [label="{_node_label(graph, i)}"];')
        else:
            lines.append(f'  "{name}";')
    for name, j in zip(names, graph.successors):
        lines.append(f'  "{name}" -> "{names[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
