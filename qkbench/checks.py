"""Independent checks of qkforge outputs.

Nothing here imports qkforge: every fact is recomputed with small,
deliberately plain arithmetic (schoolbook polynomials over F_p, F_{p^n} by
exponentiation, affine elliptic-curve arithmetic, 2-adic embeddings of the
quadratic orders), so a fault in the program cannot hide behind the same
fault in its checker.  Each check returns a list of failure messages; an
empty list means the output passed.
"""

from __future__ import annotations

import random

# Class congruences of the multiplier k (paper, section 2) and the depth-law
# constants (low e0, low e1, increment per doubling of n) of each class.
CLASS_POLYS = {
    "C1": lambda k, p: (4 * k * k - 1) % p,
    "C2": lambda k, p: (4 * k * k + 1) % p,
    "C3": lambda k, p: (2 * k * k + k + 1) % p,
    "C3-": lambda k, p: (2 * k * k - k + 1) % p,
}
DEPTH_LAWS = {"C2": (2, 3, 2), "C3": (1, 2, 1), "C3-": (1, 2, 1)}
PATTERNS = {"C2": "pairs-every-two-steps", "C3": "one-per-step", "C3-": "one-per-step"}
# CM curves y^2 = x^3 + a4 x + a6 of the two orders: Z[i] and Z[(1+sqrt(-7))/2].
CURVES = {"C2": (1, 0), "C3": (-35, 98), "C3-": (-35, 98)}

DOUBLED = "transform-irreducible"
SPLIT_KINDS = ("split-took-first", "split-took-second", "backtracked")


# ---------------------------------------------------------------------------
# integers
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24, probable prime above."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in bases:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def class_of(k: int, p: int) -> str:
    """Class of the multiplier k mod p, including the congruence on p."""
    k %= p
    if CLASS_POLYS["C1"](k, p) == 0:
        return "C1"
    if p % 4 == 1 and CLASS_POLYS["C2"](k, p) == 0:
        return "C2"
    if p % 7 in (1, 2, 4):
        for name in ("C3", "C3-"):
            if CLASS_POLYS[name](k, p) == 0:
                return name
    return "Generic"


def admissible_classes(p: int) -> tuple[str, ...]:
    out = ("C2",) if p % 4 == 1 else ()
    if p % 7 in (1, 2, 4):
        out += ("C3", "C3-")
    return out


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod the odd prime p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def nu2(m: int) -> int | None:
    """2-adic valuation, None for 0."""
    if m == 0:
        return None
    return (m & -m).bit_length() - 1


# ---------------------------------------------------------------------------
# polynomials over F_p: ascending coefficient lists without trailing zeros
# ---------------------------------------------------------------------------


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by the nonzero b, by schoolbook long division."""
    a = trim([c % p for c in a])
    b = trim(list(b))
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    while len(a) - 1 >= db:
        c = a[-1] * inv % p
        shift = len(a) - 1 - db
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bc) % p
        trim(a)
    return a


def poly_eval(a: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def monic_polys(d: int, p: int):
    """Every monic polynomial of degree d over F_p."""
    for j in range(p**d):
        low = []
        for _ in range(d):
            low.append(j % p)
            j //= p
        yield low + [1]


def is_irreducible_trial(f: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg f / 2."""
    n = len(f) - 1
    if n < 1:
        return False
    if n >= 2 and any(poly_eval(f, x, p) == 0 for x in range(p)):
        return False
    for d in range(2, n // 2 + 1):
        if any(not poly_rem(f, g, p) for g in monic_polys(d, p)):
            return False
    return True


def transform(f: list[int], k: int, p: int) -> list[int]:
    """(x/k)^n f(k(x + 1/x)) by Horner's rule on Laurent polynomials.

    The program expands f term by term against powers of (x^2 + 1); Horner
    evaluation at y = k x + k x^-1 is a different route to the same
    polynomial.  `acc` holds the coefficients of x^-j .. x^j after j steps.
    """
    n = len(f) - 1
    k %= p
    acc = [f[n] % p]
    for a in reversed(f[:n]):
        nxt = [0] * (len(acc) + 2)
        for i, c in enumerate(acc):
            nxt[i] = (nxt[i] + k * c) % p
            nxt[i + 2] = (nxt[i + 2] + k * c) % p
        nxt[len(nxt) // 2] = (nxt[len(nxt) // 2] + a) % p
        acc = nxt
    scale = pow(k, -n, p)
    return trim([c * scale % p for c in acc])


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def check_chain(record: dict, p: int, k: int, f0: list[int],
                expected_degrees: list[int] | None = None) -> list[str]:
    """A generated record against the independent step criteria.

    f0 must pass trial division.  A doubled step must equal the transform of
    its predecessor f, and f(2k) f(-2k) must be a non-square mod p (the norm
    of (alpha/k)^2 - 4 for a root alpha of f).  A split or backtracked step
    must be monic of degree deg f and divide the transform, and that product
    must be a square.  By induction on this quadratic-character criterion
    every polynomial in the chain is irreducible.
    """
    errors: list[str] = []
    tag = f"chain p={p} k={k}"
    if (record.get("p"), record.get("k")) != (p, k % p):
        errors.append(f"{tag}: record says p={record.get('p')} k={record.get('k')}")
    if record.get("class") != class_of(k, p):
        errors.append(f"{tag}: class {record.get('class')} != {class_of(k, p)}")
    steps = record.get("steps") or []
    if not steps or [s.get("i") for s in steps] != list(range(len(steps))):
        return errors + [f"{tag}: step indices are not 0..n"]
    polys = [list(s["coeffs"]) for s in steps]
    for s, f in zip(steps, polys):
        if s["degree"] != len(f) - 1 or f[-1] != 1 or any(not 0 <= c < p for c in f):
            errors.append(f"{tag} step {s['i']}: coefficients are not a monic "
                          f"reduced polynomial of degree {s['degree']}")
    if polys[0] != list(f0) or steps[0]["kind"] != "initial":
        errors.append(f"{tag}: step 0 is not the initial polynomial f0")
    if not is_irreducible_trial(f0, p):
        errors.append(f"{tag}: f0 fails trial division")
    for s, f, g in zip(steps[1:], polys, polys[1:]):
        big = transform(f, k, p)
        chi = legendre(poly_eval(f, 2 * k, p) * poly_eval(f, -2 * k, p), p)
        where = f"{tag} step {s['i']} ({s['kind']})"
        if s["kind"] == DOUBLED:
            if g != big:
                errors.append(f"{where}: differs from the transform")
            if chi != -1:
                errors.append(f"{where}: f(2k)f(-2k) is not a non-square")
        elif s["kind"] in SPLIT_KINDS:
            if len(g) != len(f) or g[-1] != 1:
                errors.append(f"{where}: not monic of degree {len(f) - 1}")
            elif poly_rem(big, g, p):
                errors.append(f"{where}: does not divide the transform")
            if chi != 1:
                errors.append(f"{where}: f(2k)f(-2k) is not a nonzero square")
        else:
            errors.append(f"{where}: unknown step kind")
    degrees = [len(f) - 1 for f in polys]
    if expected_degrees is not None and degrees != list(expected_degrees):
        errors.append(f"{tag}: degree trace {degrees} != {list(expected_degrees)}")
    return errors


# ---------------------------------------------------------------------------
# F_{p^n} = F_p[x]/(modulus), elements as digit tuples of length n
# ---------------------------------------------------------------------------


def index_to_digits(j: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        out.append(j % p)
        j //= p
    return out


def digits_to_index(d: list[int], p: int) -> int:
    j = 0
    for c in reversed(d):
        j = j * p + c
    return j


def fq_mul(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return poly_rem(prod, modulus, p)


def fq_pow(a: list[int], e: int, modulus: list[int], p: int) -> list[int]:
    result, acc = [1], trim(list(a))
    while e:
        if e & 1:
            result = fq_mul(result, acc, modulus, p)
        e >>= 1
        if e:
            acc = fq_mul(acc, acc, modulus, p)
    return result


def successor_node(i: int, k: int, modulus: list[int], p: int) -> int:
    """Node of k(x + 1/x) for node i; node 0 is infinity, node 1 + j the
    element with base-p digits of j, and 0 and infinity map to infinity."""
    if i <= 1:
        return 0
    n = len(modulus) - 1
    x = trim(index_to_digits(i - 1, p, n))
    xinv = fq_pow(x, p**n - 2, modulus, p)
    s = [0] * n
    for j, c in enumerate(x):
        s[j] += c
    for j, c in enumerate(xinv):
        s[j] += c
    y = [k * c % p for c in s]
    return 1 + digits_to_index(y + [0] * (n - len(y)), p)


def check_graph(p: int, n: int, k: int, modulus: list[int], node_count: int,
                components: list[tuple], depth_pair: tuple[int, int] | None,
                sampled: dict[int, int]) -> list[str]:
    """Component sizes sum to p^n + 1, every tree depth lies in {e0, e1},
    every component has the binary tree shape, the modulus is irreducible,
    and each sampled node's reported successor is k(x + 1/x).

    components holds (cycle_length, tree_depth, node_count, binary_shape_ok);
    sampled maps node indices to the successors the program reported.
    """
    errors: list[str] = []
    tag = f"graph p={p} n={n} k={k}"
    size = p**n + 1
    if len(modulus) != n + 1 or modulus[-1] != 1 or not is_irreducible_trial(modulus, p):
        errors.append(f"{tag}: modulus {modulus} is not monic irreducible of degree {n}")
        return errors
    if node_count != size:
        errors.append(f"{tag}: {node_count} nodes, expected {size}")
    if sum(c[2] for c in components) != size:
        errors.append(f"{tag}: component sizes sum to {sum(c[2] for c in components)}")
    for cyc, depth, count, shape_ok in components:
        if not 1 <= cyc <= count:
            errors.append(f"{tag}: component with cycle {cyc} and {count} nodes")
        if depth_pair is not None and depth not in depth_pair:
            errors.append(f"{tag}: tree depth {depth} not in {sorted(depth_pair)}")
        if not shape_ok:
            errors.append(f"{tag}: binary tree shape violated")
    for i, got in sampled.items():
        want = successor_node(i, k, modulus, p)
        if got != want:
            errors.append(f"{tag}: successor of node {i} is {got}, expected {want}")
    return errors


def sample_nodes(rng: random.Random, size: int, count: int) -> list[int]:
    """Node 0, node 1 (the element 0), and `count` seeded other nodes."""
    return [0, 1] + [rng.randrange(2, size) for _ in range(count)]


# ---------------------------------------------------------------------------
# schedules: Frobenius, curve orders and depth pairs
# ---------------------------------------------------------------------------


def quad_norm(a: int, b: int, name: str) -> int:
    if name == "C2":
        return a * a + b * b
    return a * a + a * b + 2 * b * b


def quad_trace(a: int, b: int, name: str) -> int:
    return 2 * a if name == "C2" else 2 * a + b


def ec_add(P, Q, a4: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + a4) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def ec_mul(m: int, P, a4: int, p: int):
    R = None
    while m:
        if m & 1:
            R = ec_add(R, P, a4, p)
        m >>= 1
        if m:
            P = ec_add(P, P, a4, p)
    return R


def curve_points(name: str, p: int, rng: random.Random, count: int) -> list:
    """`count` seeded affine points on the CM curve of the class."""
    a4, a6 = CURVES[name]
    points = []
    while len(points) < count:
        x = rng.randrange(p)
        y = sqrt_mod(x * x * x + a4 * x + a6, p)
        if y is not None:
            points.append((x, y))
    return points


def _two_adic_root(odd: bool, bits: int) -> int:
    """The root of x^2 - x + 2 in Z_2 that is odd or even, mod 2^bits."""
    mod = 1 << bits
    r = 1 if odd else 0
    for _ in range(bits.bit_length() + 1):  # Newton doubles the precision
        r = (r - (r * r - r + 2) * pow(2 * r - 1, -1, mod)) % mod
    return r


def depth_pair(name: str, pi: tuple[int, int], rho0: tuple[int, int] | None,
               n: int, bits: int = 256) -> tuple[int, int] | None:
    """(e0, e1) from the 2-adic image of pi^n -+ 1, computed mod 2^bits.

    C2: valuations of the norms N(pi^n -+ 1) in Z[i].  C3/C3-: valuations
    at rho0 in Z[alpha], alpha^2 = alpha - 2, through the embedding
    Z[alpha] -> Z_2 that sends rho0 into 2 Z_2: alpha goes to the even root
    of x^2 - x + 2 when rho0 = alpha, to the odd root when rho0 = 1 - alpha.
    """
    mod = 1 << bits
    a, b = pi
    if name == "C2":
        za, zb = 1, 0
        ea, eb = a % mod, b % mod
        e = n
        while e:  # (a + b i)^n mod 2^bits
            if e & 1:
                za, zb = (za * ea - zb * eb) % mod, (za * eb + zb * ea) % mod
            e >>= 1
            if e:
                ea, eb = (ea * ea - eb * eb) % mod, (2 * ea * eb) % mod
        e0 = nu2(((za - 1) ** 2 + zb * zb) % mod)
        e1 = nu2(((za + 1) ** 2 + zb * zb) % mod)
    else:
        if rho0 == (0, 1):
            r = _two_adic_root(False, bits)
        elif rho0 == (1, -1):
            r = _two_adic_root(True, bits)
        else:
            return None
        z = pow((a + b * r) % mod, n, mod)
        e0, e1 = nu2((z - 1) % mod), nu2((z + 1) % mod)
    if e0 is None or e1 is None:
        return None
    return e0, e1


def depth_law_errors(name: str, n: int, e0: int, e1: int,
                     base: tuple[int, int, int] | None = None) -> list[str]:
    """The paper's depth laws for one pair; `base` = (m, e0(m), e1(m)) with
    n = 2^i m, i >= 1, also checks the doubling law."""
    low0, low1, inc = DEPTH_LAWS[name]
    tag = f"{name} n={n} (e0,e1)=({e0},{e1})"
    errors = []
    if e0 < low0:
        errors.append(f"{tag}: e0 < {low0}")
    if e0 == low0 and e1 < low1:
        errors.append(f"{tag}: e0 = {low0} needs e1 >= {low1}")
    if e0 > low0 and e1 != low1 - 1:
        errors.append(f"{tag}: e0 > {low0} needs e1 = {low1 - 1}")
    if base is not None:
        m, b0, b1 = base
        i = (n // m).bit_length() - 1
        if n != m << i or i < 1:
            errors.append(f"{tag}: {n} is not 2^i * {m} with i >= 1")
        elif (e0, e1) != (b0 + b1 + (i - 1) * inc, low1 - 1):
            errors.append(f"{tag}: doubling law from n={m} ({b0},{b1}) fails")
    return errors


def check_prediction(payload: dict, p: int, k: int, n: int,
                     points: list) -> tuple[list[str], tuple[int, int] | None]:
    """A `predict` JSON payload against the independent computations:
    N(pi) = p, trace(pi) = a_p, [p + 1 - a_p] P = O on the CM curve, rho0
    matching 2k + 1 mod pi, (e0, e1) from the 2-adic route, and the depth
    laws.  Returns the failures and the independently derived (e0, e1).
    """
    name = class_of(k, p)
    tag = f"predict p={p} k={k} n={n}"
    errors: list[str] = []
    try:
        a, b = payload["pi"]
        a_p = payload["a_p"]
    except (KeyError, TypeError, ValueError):
        return [f"{tag}: payload lacks pi or a_p"], None
    if quad_norm(a, b, name) != p:
        errors.append(f"{tag}: N(pi) = {quad_norm(a, b, name)} != p")
    if quad_trace(a, b, name) != a_p:
        errors.append(f"{tag}: trace of pi != a_p = {a_p}")
    order = p + 1 - a_p
    a4 = CURVES[name][0]
    for P in points:
        if ec_mul(order, P, a4, p) is not None:
            errors.append(f"{tag}: [p+1-a_p] P != O for P = {P}")
            break
    rho0 = None
    if name in ("C3", "C3-"):
        rho0 = tuple(payload.get("rho0") or ())
        k3 = k if name == "C3" else -k
        alpha_res = -a * pow(b, -1, p) % p
        res = {(0, 1): alpha_res, (1, -1): (1 - alpha_res) % p}.get(rho0)
        if res != (2 * k3 + 1) % p:
            errors.append(f"{tag}: rho0 {rho0} does not match 2k+1 mod pi")
    elif "rho0" in payload:
        errors.append(f"{tag}: rho0 reported for class C2")
    pair = depth_pair(name, (a, b), rho0, n)
    if pair is None:
        return errors + [f"{tag}: no 2-adic depth pair"], None
    e0, e1 = pair
    want = {"e0": e0, "e1": e1, "s_bound": max(e0, e1), "st_bound": e0 + e1,
            "pattern": PATTERNS[name]}
    for key, value in want.items():
        if payload.get(key) != value:
            errors.append(f"{tag}: {key} = {payload.get(key)}, expected {value}")
    errors += depth_law_errors(name, n, e0, e1)
    return errors, pair


def sweep_identity_count(max_p: int, max_n: int, max_m: int, max_i: int) -> int:
    """Identities `sweep-lemmas` checks when every law holds: per admissible
    multiplier, two for each n (the floor on e0 and the e1 law matching e0)
    and 1 + max_i for each m (the doubling law, then each further doubling).
    Each admissible class has exactly two multipliers mod p."""
    multipliers = sum(2 * len(admissible_classes(p))
                      for p in range(3, max_p) if is_prime(p))
    return multipliers * (2 * max_n + max_m * (1 + max_i))
