"""Weight constructions that separate the safe number from its connected
variant, and the certification pipeline built on them.

Each pattern match from :mod:`safesets.contraction` yields a parametric weight
function under which, for every large enough alpha, the lightest safe set is
strictly lighter than every connected safe set.  Certification instantiates
the construction, solves exactly, and only emits a certificate after the
solver confirms the strict gap, escalating alpha by doubling when a particular
value happens to collide with a tie.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .contraction import (
    PATTERN_NAMES,
    PatternMatch,
    complete_bipartite_match,
    find_pattern,
    validate_match,
)
from .graph import (
    MAX_SUBSET_ORDER,
    Graph,
    InputError,
    components,
    is_connected,
    iter_bits,
    neighborhood_mask,
    popcount,
    vlist,
    vset,
)
from .graph6 import parse_graph6, to_graph6
from .solver import is_safe_set, solve_pair
from .weights import (
    WeightFn,
    format_rational,
    parse_rational,
    parse_weights_json,
)

RANDOM_PATTERN = "RANDOM"
DEFAULT_ALPHA_DOUBLINGS = 10  # alpha runs 2, 4, ..., 2**11
DEFAULT_SAMPLE_COUNT = 200


class ParamError(InputError):
    """Witness parameters violate a constraint (for example a top-up weight
    would be nonpositive); callers usually retry with a larger alpha."""


@dataclass(frozen=True)
class WitnessParams:
    """Knobs of the weight constructions; only the relevant fields are used.

    alpha must exceed 1.  H2 uses eps in (0, 1); KMN with a big bag Z uses
    eps with eps * (|Z| - 1) < 1; H3 uses the chain
    1/n > eps3 > 2n*eps5 > 2n^2*eps4 > 0 where n is the graph order.
    """

    alpha: Fraction
    eps: Fraction | None = None
    eps3: Fraction | None = None
    eps4: Fraction | None = None
    eps5: Fraction | None = None

    def to_json(self) -> dict:
        out = {"alpha": format_rational(self.alpha)}
        for name in ("eps", "eps3", "eps4", "eps5"):
            value = getattr(self, name)
            if value is not None:
                out[name] = format_rational(value)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "WitnessParams":
        if not isinstance(obj, dict):
            raise InputError("witness params must be a JSON object")
        kwargs = {}
        for name in ("alpha", "eps", "eps3", "eps4", "eps5"):
            if name in obj and obj[name] is not None:
                kwargs[name] = parse_rational(obj[name])
        if "alpha" not in kwargs:
            raise InputError("witness params need an alpha")
        return cls(**kwargs)


def default_params(g: Graph, match: PatternMatch) -> WitnessParams:
    """Simple maximal defaults: alpha=2, eps=1/4 where it fits, and an H3
    chain built from clean powers of the graph order."""
    alpha = Fraction(2)
    if match.pattern == "H2":
        return WitnessParams(alpha, eps=Fraction(1, 4))
    if match.pattern == "H3":
        n = g.n
        return WitnessParams(
            alpha,
            eps3=Fraction(1, 2 * n),
            eps5=Fraction(1, 8 * n * n),
            eps4=Fraction(1, 16 * n**3),
        )
    if match.pattern == "KMN":
        z_index = match.params.get("z_index")
        if z_index is not None:
            size = popcount(match.bags[z_index])
            return WitnessParams(alpha, eps=min(Fraction(1, 4), Fraction(1, 2 * (size - 1))))
        return WitnessParams(alpha)
    return WitnessParams(alpha)


def _require_alpha(params: WitnessParams | None) -> Fraction:
    if params is None:
        raise ParamError("the construction needs an alpha")
    if params.alpha <= 1:
        raise ParamError("alpha must be greater than 1")
    return params.alpha


def _least_cross_edge(g: Graph, a: int, b: int) -> tuple[int, int]:
    for u in vlist(a):
        hit = g.adj[u] & b
        if hit:
            return u, vlist(hit)[0]
    raise InputError("expected an edge between the two bags")


def weights_for_h1(g: Graph, match: PatternMatch, params: WitnessParams) -> WeightFn:
    """alpha+1 on an edge across (V1, V2); alpha on an edge across (V4, V5);
    V3 shares total weight 1 evenly; everything else 0."""
    validate_match(g, match)
    alpha = _require_alpha(params)
    v1_bag, v2_bag, v3_bag, v4_bag, v5_bag = match.bags
    v1, v2 = _least_cross_edge(g, v1_bag, v2_bag)
    v4, v5 = _least_cross_edge(g, v4_bag, v5_bag)
    w = [Fraction(0)] * g.n
    w[v1] = w[v2] = alpha + 1
    w[v4] = w[v5] = alpha
    share = Fraction(1, popcount(v3_bag))
    for v in iter_bits(v3_bag):
        w[v] = share
    return tuple(w)


def weights_for_h2(g: Graph, match: PatternMatch, params: WitnessParams) -> WeightFn:
    """alpha on v1, v3, v5; alpha+1 on v2; V4 carries total weight alpha,
    spread as 1+eps off the anchor v4."""
    validate_match(g, match)
    alpha = _require_alpha(params)
    eps = params.eps
    if eps is None or not 0 < eps < 1:
        raise ParamError("H2 needs eps strictly between 0 and 1")
    v1_bag, v2_bag, v3_bag, v4_bag, v5_bag = match.bags
    v1, v2 = _least_cross_edge(g, v1_bag, v2_bag)
    _, v3 = _least_cross_edge(g, v2_bag, v3_bag)
    v4, v5 = _least_cross_edge(g, v4_bag, v5_bag)
    size4 = popcount(v4_bag)
    anchor = alpha - (1 + eps) * (size4 - 1)
    if anchor <= 0:
        raise ParamError("alpha too small: the V4 anchor weight would be nonpositive")
    w = [Fraction(0)] * g.n
    w[v1] = w[v3] = w[v5] = alpha
    w[v2] = alpha + 1
    for v in iter_bits(v4_bag):
        w[v] = 1 + eps
    w[v4] = anchor
    return tuple(w)


def weights_for_h3(g: Graph, match: PatternMatch, params: WitnessParams) -> WeightFn:
    """Fill V3, V4 and the pinned component D of V5 up to total weight alpha
    each, with tiny per-vertex weights eps3, eps4, eps5 off the anchors."""
    validate_match(g, match)
    alpha = _require_alpha(params)
    n = g.n
    eps3, eps4, eps5 = params.eps3, params.eps4, params.eps5
    if eps3 is None or eps4 is None or eps5 is None:
        raise ParamError("H3 needs eps3, eps4 and eps5")
    if not Fraction(1, n) > eps3 > 2 * n * eps5 > 2 * n * n * eps4 > 0:
        raise ParamError("H3 eps chain violated: need 1/n > eps3 > 2n*eps5 > 2n^2*eps4 > 0")
    v1_bag, v2_bag, v3_bag, v4_bag, v5_bag = match.bags
    v4 = match.params["v4"]
    d = match.params["d"]
    v1 = vlist(v1_bag)[0]
    v2 = vlist(v2_bag)[0]
    v3 = vlist(g.adj[v4] & v3_bag)[0]
    v5 = vlist(g.adj[v4] & d)[0]
    top3 = alpha - (1 + eps3) * (popcount(v3_bag) - 1)
    top4 = alpha - eps4 * (popcount(v4_bag) - 1)
    top5 = alpha - eps5 * (popcount(d) - 1)
    if top3 <= 0 or top4 <= 0 or top5 <= 0:
        raise ParamError("alpha too small: an anchor weight would be nonpositive")
    w = [Fraction(0)] * g.n
    w[v1] = alpha
    w[v2] = alpha + 1
    for v in iter_bits(v3_bag):
        w[v] = 1 + eps3
    for v in iter_bits(v4_bag):
        w[v] = eps4
    for v in iter_bits(v5_bag):
        w[v] = eps5
    w[v3] = top3
    w[v4] = top4
    w[v5] = top5
    return tuple(w)


def weights_for_kmn(g: Graph, match: PatternMatch, params: WitnessParams | None) -> WeightFn:
    """Constant 1 when every bag is a singleton; otherwise alpha per bag with
    the big bag Z spread as eps off its least vertex."""
    validate_match(g, match)
    z_index = match.params.get("z_index")
    if z_index is None:
        return tuple(Fraction(1) for _ in range(g.n))
    alpha = _require_alpha(params)
    z = match.bags[z_index]
    size = popcount(z)
    eps = params.eps if size > 1 else Fraction(0)
    if size > 1 and (eps is None or not 0 < eps * (size - 1) < 1):
        raise ParamError("KMN needs eps with 0 < eps*(|Z|-1) < 1")
    w = [alpha] * g.n
    anchor = alpha - eps * (size - 1)
    for v in iter_bits(z):
        w[v] = eps
    w[vlist(z)[0]] = anchor
    return tuple(w)


_BUILDERS = {
    "H1": weights_for_h1,
    "H2": weights_for_h2,
    "H3": weights_for_h3,
    "KMN": weights_for_kmn,
}


@dataclass
class WitnessCertificate:
    """A weight function with solver-confirmed strict gap s < cs."""

    graph: Graph
    weights: WeightFn
    s: Fraction
    cs: Fraction
    minimum_safe_set: int
    pattern: str
    match: PatternMatch | None = None
    params: WitnessParams | None = None
    seed: int | None = None

    def to_json(self) -> dict:
        out = {
            "schemaVersion": 1,
            "graph6": to_graph6(self.graph),
            "pattern": self.pattern,
            "params": self.params.to_json() if self.params else None,
            "weights": [format_rational(x) for x in self.weights],
            "s": format_rational(self.s),
            "cs": format_rational(self.cs),
            "minimumSafeSet": vlist(self.minimum_safe_set),
        }
        if self.match is not None:
            out["match"] = self.match.to_json()
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def _certificate_from_solution(g, weights, pattern, match, params, seed=None):
    s_sol, cs_sol = solve_pair(g, weights)
    if s_sol.optimum >= cs_sol.optimum:
        return None
    return WitnessCertificate(
        graph=g,
        weights=weights,
        s=s_sol.optimum,
        cs=cs_sol.optimum,
        minimum_safe_set=s_sol.witness_set,
        pattern=pattern,
        match=match,
        params=params,
        seed=seed,
    )


def _candidates(g: Graph, budget: int):
    """Yield (match, params) in route order: the constant K(m,n) match without
    params, then each pattern's match, searched lazily, up the alpha ladder."""
    match = complete_bipartite_match(g)
    if match is not None:
        yield match, None
    for name in PATTERN_NAMES:
        match = find_pattern(g, name, budget)
        if match is None:
            continue
        base = default_params(g, match)
        for k in range(DEFAULT_ALPHA_DOUBLINGS + 1):
            yield match, replace(base, alpha=Fraction(2) * 2**k)


def certify_non_membership(
    g: Graph,
    *,
    budget: int = 10**6,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> WitnessCertificate | None:
    """Try to produce a solver-verified certificate that some weight function
    separates s from cs on g.

    Route order: the constant-weight complete bipartite case, then patterns
    H1, H2, H3, KMN with alpha doubling, then seeded random integer weights.
    Returns None when every route fails; that is not a membership proof.
    """
    if not is_connected(g):
        raise InputError("certification requires a connected graph")
    if g.n > MAX_SUBSET_ORDER:
        raise InputError(f"certification limited to order {MAX_SUBSET_ORDER}")

    for match, params in _candidates(g, budget):
        try:
            weights = _BUILDERS[match.pattern](g, match, params)
        except ParamError:
            continue
        cert = _certificate_from_solution(g, weights, match.pattern, match, params)
        if cert is not None:
            return cert

    rng = random.Random(seed)
    for _ in range(sample_count):
        weights = tuple(Fraction(rng.randint(1, g.n * g.n)) for _ in range(g.n))
        cert = _certificate_from_solution(
            g, weights, RANDOM_PATTERN, None, None, seed=seed
        )
        if cert is not None:
            return cert
    return None


def verify_certificate(obj: dict) -> tuple[bool, list[str]]:
    """Re-derive everything checkable from a certificate JSON object: the
    optima by an exact solve, and a pattern certificate's weights from its
    match and params.  Returns (ok, problems).  Malformed input raises
    InputError; a well-formed certificate whose claims do not hold comes
    back as (False, [...]).
    """
    if not isinstance(obj, dict):
        raise InputError("certificate must be a JSON object")
    for field in ("graph6", "pattern", "weights", "s", "cs", "minimumSafeSet"):
        if field not in obj:
            raise InputError(f"certificate is missing the {field!r} field")
    g = parse_graph6(obj["graph6"])
    weights = parse_weights_json(obj["weights"], g.n)
    claimed_s = parse_rational(obj["s"])
    claimed_cs = parse_rational(obj["cs"])
    stated_set = vset(obj["minimumSafeSet"])
    pattern = obj["pattern"]
    if not isinstance(pattern, str):
        raise InputError("certificate pattern must be a string")
    if pattern in _BUILDERS:
        if obj.get("match") is None:
            raise InputError(f"a certificate of pattern {pattern} needs a match")
        match = PatternMatch.from_json(obj["match"])
        params = None if obj.get("params") is None else WitnessParams.from_json(obj["params"])

    problems: list[str] = []
    s_sol, cs_sol = solve_pair(g, weights)
    if s_sol.optimum != claimed_s:
        problems.append(f"s mismatch: stated {claimed_s}, solved {s_sol.optimum}")
    if cs_sol.optimum != claimed_cs:
        problems.append(f"cs mismatch: stated {claimed_cs}, solved {cs_sol.optimum}")
    if not claimed_s < claimed_cs:
        problems.append("certificate does not exhibit a strict gap s < cs")
    if stated_set == 0 or stated_set & ~g.full_mask:
        problems.append("stated minimum safe set is not a valid vertex set")
    else:
        if not is_safe_set(g, weights, stated_set):
            problems.append("stated minimum safe set is not safe")
        set_weight = sum((weights[v] for v in vlist(stated_set)), Fraction(0))
        if set_weight != s_sol.optimum:
            problems.append("stated minimum safe set does not have optimal weight")
        if len(components(g, stated_set)) < 2:
            problems.append("stated minimum safe set induces a connected subgraph")

    if pattern in _BUILDERS:
        try:
            if match.pattern != pattern:
                raise InputError(f"match is for {match.pattern!r}, not {pattern!r}")
            rebuilt = _BUILDERS[pattern](g, match, params)
        except ParamError as exc:
            problems.append(f"stated params are invalid: {exc}")
        except InputError as exc:
            problems.append(f"invalid pattern match: {exc}")
        else:
            if rebuilt != weights:
                problems.append("weights do not match the construction")
    elif pattern != RANDOM_PATTERN:
        problems.append(f"unknown pattern {pattern!r}")
    return (not problems, problems)
