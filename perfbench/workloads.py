"""The four benchmark workloads: seeded inputs, a timed region, output checks.

Each workload has three steps, called by ``run.py``:

* ``setup(lib, seed, rounds)`` builds every input from the seed (and from the
  committed sweep list), before anything is timed;
* ``timed(lib, state, index, op)`` is the timed region of round ``index``; it
  calls the library only through its public names and returns raw outputs;
  ``op(i)`` marks the start of operation ``i`` for the tracer;
* ``check(lib, state, index, raw)`` validates those outputs after the clock
  has stopped and returns an :class:`Outcome`.

``lib`` holds the imported ``safesets`` package and its modules.  The work of
a round is fixed, so ``wall_s`` measures work, not the clock.  ``repeats`` is
how many times ``run.py`` times the same round (caches cleared each time);
it keeps the shorter region and, per operation, the shorter latency, so a
burst of contention from other tenants of the host counts only when it hits
both.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference

SWEEP_FILE = Path(__file__).resolve().parent / "data" / "sweep_o8.g6"
SWEEP_SHA256 = "c286669ab1cba42e625d8379063d3a36da62ba8b96d508829b5e17a27b79615f"

CAMPAIGN_COUNTS = {
    "graphs": 2277,
    "members": 1532,
    "nonMembers": 644,
    "undecided": 101,
    "failures": 0,
}
# sha256 over (graph6, sweeps, verdict, family, reason) of every record, in
# report order.  Certificate params are left out on purpose, so a change to
# the alpha ladder still passes.
CAMPAIGN_DIGEST = "4be6c3357a864846e95957d3425c98c137cc6dda7dbaf7e4b0e6cde67d2a231b"
# sha256 over the (s, cs) optima of round 0 of solve-large, in batch order,
# for seeds 0-19, computed with the solver that passed the exhaustive check;
# other seeds are checked without a pinned digest.
OPTIMA_DIGESTS: dict[int, str] = {
    0: "d58b9694ec0a7c24c0818f8a9230748f3453616a99545ba6330465a3dfd2f5be",
    1: "be4705047062e34f3c6a483f9798e48e1868b7bc02d1a3683dd11a3467db3476",
    2: "23de4d79b6e455101bb34ef979781588d12e79a11005de74fe9e76994f540eb2",
    3: "c4f50f529365f91dfd63d25bab75665d1205cbc61acb7e0b1f8536292a1f36be",
    4: "4b1033624026f0cbde3ee508d80b730109333bed6dc062e541edb31369342694",
    5: "11e4284a5e08bb104445d404db7b0dd9fa2f2bda1b149816a6dda46daeea7c92",
    6: "2994008ed06d859c681dec31d264dbffbe0e325efa34e6206f77111817d45434",
    7: "7242996d8a724f5869b12f5a7ec0e1f75203da23aa5e742ce2537b7d9ab8aef6",
    8: "2767eec9a322ce01b4c7e2f9fed5f4ec5e4ad0d59f83229f752540b7e8b1ce99",
    9: "5b38592962d23482a85c971d3cc4662184dc53aef4f5ac718f4b8e67e2ea9228",
    10: "0b20f5b40c1b6fd6474de37468f8eb4f3dbce50620312677d46b7bd2571fd3f8",
    11: "a66140a72b1f226b44495ff3f7367bb58f91e0641a66706efea84eee0974001a",
    12: "e649746c35ffbaf5ba16dc456017d066de533eca83f6b742bd0a76034adf3660",
    13: "20345f71822834f703b53afe33e6dc1147602f62196463c49590d97f7fea79af",
    14: "697b257948a9e8b2e761e92f32a347f6446b1b83c384d2d79bb0ddb143c35ca6",
    15: "13e15a5b3841a41e51830bf140af8161133d6107bdd1e2b8f13805d8cf895142",
    16: "aea802c3ea532fc96b1972ab3e3e21b48f16bd81ff8bbac786714a976dd024de",
    17: "99ef7dee120e1646d715dfb1276bc05d1e3b0d8d89da569a1a247675f93d68a8",
    18: "4dc3225c801376cbdc600fb243ef469ad9f1b0da8ab83b8203fef27bd2b7f03c",
    19: "c6c4ea7fbc5df3aba321a30547d930c9e1eae8c6a676471c61b6d69f260cf303",
}
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)
SWEEPS = ("bipartite", "chordal", "triangle-free")
ROUND_SEED_STRIDE = 100_003  # campaign seed of round i is seed + i * stride


class SetupError(Exception):
    """The benchmark's own inputs are missing or corrupt."""


@dataclass
class Outcome:
    latencies: list[float]  # seconds per operation
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    digest: str = ""  # identical across repeats and with tracing on and off
    notes: dict = field(default_factory=dict)


def _sha256_lines(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def load_sweep_list() -> list[str]:
    """The 2277 order <= 8 sweep graphs, verified against their checksum."""
    try:
        data = SWEEP_FILE.read_bytes()
    except OSError as exc:
        raise SetupError(f"cannot read {SWEEP_FILE.name}: {exc}") from exc
    if hashlib.sha256(data).hexdigest() != SWEEP_SHA256:
        raise SetupError(f"{SWEEP_FILE.name} does not match its checksum")
    return data.decode("ascii").split()


def clear_caches(lib) -> None:
    """Empty every lru_cache of the library, as in a fresh process."""
    for module in vars(lib).values():
        for value in list(vars(module).values()):
            if getattr(value, "__module__", "").startswith("safesets") and hasattr(
                value, "cache_clear"
            ):
                value.cache_clear()


def _order(graph6: str) -> int:
    return ord(graph6[0]) - 63


# ---------------------------------------------------------------- generators


def _relabelled(lib, n: int, edges, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    return lib.pkg.Graph.from_edges(
        n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
    )


def _tree_edges(n: int, rng: random.Random) -> set:
    return {(rng.randrange(v), v) for v in range(1, n)}


def _with_random_pairs(n: int, edges: set, p: float, rng: random.Random) -> set:
    return edges | {
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    }


def gen_cycle(lib, n, rng):
    return _relabelled(lib, n, [(v, (v + 1) % n) for v in range(n)], rng)


def gen_tree(lib, n, rng):
    return _relabelled(lib, n, _tree_edges(n, rng), rng)


def _sparse_edges(n: int, rng: random.Random) -> set:
    edges = _tree_edges(n, rng)
    while len(edges) < n - 1 + n // 4:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return edges


def _diameter(n: int, edges) -> int:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    longest = 0
    for source in range(n):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for u in nbrs[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        longest = max(longest, *dist.values())
    return longest


def gen_sparse(lib, n, rng):
    """Random tree plus n // 4 extra edges."""
    return _relabelled(lib, n, _sparse_edges(n, rng), rng)


def gen_sparse_wide(lib, n, rng):
    """A sparse graph redrawn until its diameter is at least 4, so that it is
    a non-member.  About one sparse draw in 200 at order 10 is a member; in
    60,000 draws at orders 10-12 every member had diameter 3 or less, and
    over seeds 0-39 of certify every wider draw was certified by H1 or H2."""
    while True:
        edges = _sparse_edges(n, rng)
        if _diameter(n, edges) >= 4:
            return _relabelled(lib, n, edges, rng)


def gen_dense(lib, n, rng):
    """Random tree plus every other pair with probability 0.7.  At this
    density unit weights almost surely tie on about C(n, n/2) optimal sets,
    which the solver sorts: the memory peak of solve-large."""
    return _relabelled(lib, n, _with_random_pairs(n, _tree_edges(n, rng), 0.7, rng), rng)


def gen_kmn(lib, n, rng):
    """K(4, n - 5) with one vertex of the 4 side blown up into a connected
    bag Z of two vertices that share the other side at random: dense and
    bipartite-like; H1, H2 and H3 searches all fail before KMN matches."""
    xs, zs, ys = range(3), (3, 4), range(5, n)
    edges = {(a, b) for a in xs for b in ys} | {zs}
    edges |= {(rng.choice(zs), y) for y in ys}
    edges |= {(a, y) for a in zs for y in ys if rng.random() < 0.5}
    return _relabelled(lib, n, edges, rng)


def gen_universal(lib, n, rng):
    """A universal vertex over a p = 0.6 random graph: a member, so every
    route fails and certification ends in the random fallback."""
    edges = {(0, v) for v in range(1, n)}
    edges |= {
        (u, v) for u in range(1, n) for v in range(u + 1, n) if rng.random() < 0.6
    }
    return _relabelled(lib, n, edges, rng)


WEIGHT_KINDS = ("unit", "random", "rational")


def _weights(kind: str, n: int, rng: random.Random) -> tuple:
    if kind == "unit":
        return (Fraction(1),) * n
    if kind == "random":
        return tuple(Fraction(rng.randint(1, n * n)) for _ in range(n))
    return tuple(Fraction(rng.randint(1, 4 * n), rng.randint(1, 6)) for _ in range(n))


# ----------------------------------------------------------------- workloads


class CampaignO8:
    """run_characterization_campaign over the committed order <= 8 sweep
    list, jobs=1, then the report JSON: the users' main job."""

    name = "campaign-o8"
    repeats = 1
    samples = 50
    # Every fifth graph of the list (456, all orders in proportion) is
    # studied a second time after the campaign.  A fixed sample keeps its mix
    # of members and non-members, and with it p50, the same on every seed.
    latency_step = 5

    def setup(self, lib, seed, rounds):
        lines = load_sweep_list()
        inputs = []
        for index in range(rounds):
            shuffled = list(lines)
            random.Random(f"{self.name}:{seed}:{index}").shuffle(shuffled)
            inputs.append(shuffled)
        return {"seed": seed, "inputs": inputs, "resampled": lines[:: self.latency_step]}

    def timed(self, lib, state, index, op):
        latencies = {}
        study = lib.campaign.study_graph

        def timed_study(graph6, *args, **kwargs):
            op(len(latencies))
            start = time.perf_counter()
            try:
                return study(graph6, *args, **kwargs)
            finally:
                latencies[graph6] = time.perf_counter() - start

        # The op boundary sits inside run_characterization_campaign, so the
        # per-graph latency needs this one perf_counter pair around each study.
        lib.campaign.study_graph = timed_study
        try:
            report = lib.pkg.run_characterization_campaign(
                max_order=8,
                samples_per_member=self.samples,
                seed=state["seed"] + ROUND_SEED_STRIDE * index,
                input_graphs=state["inputs"][index],
            )
            text = lib.campaign.report_to_json(report)
        finally:
            lib.campaign.study_graph = study
        return report, text, latencies

    def check(self, lib, state, index, raw):
        """Checks the report, then studies the sampled graphs a second time,
        cold, each of which must give the same record.  A graph's latency is
        the shorter of its two studies, so a burst of host contention during
        one of them does not move p90."""
        report, text, latencies = raw
        counts = report["counts"]
        problems = [
            f"campaign count {key} is {counts.get(key)}, expected {want}"
            for key, want in CAMPAIGN_COUNTS.items()
            if counts.get(key) != want
        ]
        digest = _sha256_lines(
            [r["graph6"], r["sweeps"], r["verdict"], r["family"], r["reason"]]
            for r in report["records"]
        )
        if digest != CAMPAIGN_DIGEST:
            problems.append("campaign verdict digest differs from the committed one")
        if json.loads(text)["counts"] != counts:
            problems.append("report JSON does not round-trip")

        records = {r["graph6"]: r for r in report["records"]}
        seed = state["seed"] + ROUND_SEED_STRIDE * index
        clear_caches(lib)
        sample = []
        for graph6 in state["resampled"]:
            start = time.perf_counter()
            record, _ = lib.campaign.study_graph(graph6, self.samples, seed)
            sample.append(min(latencies[graph6], time.perf_counter() - start))
            if record != records.get(graph6):
                problems.append(f"{graph6}: a second study gives another record")
        return Outcome(
            sample,
            attempted=len(state["inputs"][index]),
            failed=len({f["graph6"] for f in report["failures"]}),
            problems=problems,
            digest=digest,
        )


class EnumerateO8:
    """Cold-cache enumeration of the same sweep list through
    enumerate_connected_graphs(k, f), k = 1..8, every sweep filter, plus the
    unfiltered list per order: the half of `safesets campaign --max-order 8`
    that campaign-o8 bypasses."""

    name = "enumerate-o8"
    repeats = 1

    def setup(self, lib, seed, rounds):
        expected = [set() for _ in range(9)]
        for line in load_sweep_list():
            expected[_order(line)].add(line)
        rng = random.Random(f"{self.name}:{seed}")
        # The seed orders the filter requests at each order; whichever comes
        # first pays for the canonical forms.
        plans = [
            [rng.sample(SWEEPS, len(SWEEPS)) for _ in range(8)] for _ in range(rounds)
        ]
        return {"expected": expected, "plans": plans}

    def timed(self, lib, state, index, op):
        enumerate_connected_graphs = lib.pkg.enumerate_connected_graphs
        per_order = []
        for k, filters in enumerate(state["plans"][index], start=1):
            op(k)
            start = time.perf_counter()
            swept = [enumerate_connected_graphs(k, f) for f in filters]
            connected = enumerate_connected_graphs(k)
            per_order.append((time.perf_counter() - start, swept, len(connected)))
        return per_order

    def check(self, lib, state, index, raw):
        latencies, problems, emitted = [], [], []
        failed = 0
        for k, (seconds, swept, n_connected) in enumerate(raw, start=1):
            if n_connected != CONNECTED_COUNTS[k - 1]:
                problems.append(
                    f"order {k}: {n_connected} connected graphs, "
                    f"expected {CONNECTED_COUNTS[k - 1]}"
                )
            found = {lib.graph6.to_graph6(g) for graphs in swept for g in graphs}
            missing = state["expected"][k] ^ found
            if missing:
                failed += len(missing)
                problems.append(f"order {k}: {len(missing)} sweep graphs differ")
            # One call emits a whole order, so each graph is charged its
            # order's share of the time.
            latencies.extend([seconds / max(len(found), 1)] * len(found))
            emitted.extend(sorted(found))
        return Outcome(
            latencies,
            attempted=sum(len(e) for e in state["expected"]),
            failed=failed,
            problems=problems,
            digest=_sha256_lines(emitted),
        )


class SolveLarge:
    """One solve_pair per seeded connected graph of order 14-18 on the
    uncached structure path.  The mix of (class, order, weights) cells is
    fixed; the seed draws the graphs, labels and weights."""

    name = "solve-large"
    classes = {"cycle": gen_cycle, "tree": gen_tree, "sparse": gen_sparse, "dense": gen_dense}
    repeats = 2
    # Solves per (class, order, weights): 112 in all.  Cycles and dense
    # graphs solve in near-equal times per cell, and these counts put p50
    # and p90 inside such cells, so both stay steady from seed to seed.
    # Orders 17 and 18 hold one solve per class each, with the named worst
    # cases: a unit-weight cycle and a unit-weight dense graph.
    counts = {
        **{
            (c, n, k): m
            for c in ("cycle", "tree", "sparse", "dense")
            for k in WEIGHT_KINDS
            for n, m in ((14, 5), (15, 2), (16, 1))
        },
        **{("dense", 16, k): 3 for k in WEIGHT_KINDS},
        ("cycle", 17, "random"): 1, ("cycle", 17, "rational"): 1,
        ("dense", 17, "random"): 1, ("dense", 17, "rational"): 1,
        ("tree", 17, "unit"): 1, ("sparse", 17, "unit"): 1,
        ("cycle", 18, "unit"): 1, ("dense", 18, "unit"): 1,
        ("tree", 18, "rational"): 1, ("sparse", 18, "random"): 1,
    }
    relabel_share = 8  # one instance in this many is re-solved relabelled
    exhaustive_max_order = 15  # instances up to this order are proved optimal

    def setup(self, lib, seed, rounds):
        batches = []
        for index in range(rounds):
            rng = random.Random(f"{self.name}:{seed}:{index}")
            batch = [
                ((cls, kind), self.classes[cls](lib, n, rng), _weights(kind, n, rng))
                for (cls, n, kind), count in self.counts.items()
                for _ in range(count)
            ]
            rng.shuffle(batch)
            relabel = sorted(rng.sample(range(len(batch)), len(batch) // self.relabel_share))
            perms = {}
            for i in relabel:
                perm = list(range(batch[i][1].n))
                rng.shuffle(perm)
                perms[i] = perm
            batches.append((batch, perms))
        return {"seed": seed, "batches": batches}

    def timed(self, lib, state, index, op):
        solve_pair = lib.pkg.solve_pair
        out = []
        for i, (_, g, w) in enumerate(state["batches"][index][0]):
            op(i)
            start = time.perf_counter()
            try:
                result = solve_pair(g, w)
            except Exception as exc:  # a failing solve is counted, not fatal
                result = exc
            out.append((time.perf_counter() - start, result))
        return out

    def check(self, lib, state, index, raw):
        """Cheap checks on every instance; then, once per round whatever the
        number of repeats, the costly ones: the relabelled re-solve of one
        instance in eight, and an exhaustive proof of both optima (see
        reference.py) for every instance of order 15 or less.  Unit-weight
        cycles must give s = cs = ceil(n / 2) at every order.  For the seeds
        in OPTIMA_DIGESTS, the optima of round 0 must match the digest
        committed for them."""
        batch, perms = state["batches"][index]
        slow_faults = state.setdefault("slow_faults", {})
        problems, optima = [], []
        bad = set()
        for i, (((cls, kind), g, w), (_, result)) in enumerate(zip(batch, raw)):
            if isinstance(result, Exception):
                bad.add(i)
                problems.append(f"instance {i}: {type(result).__name__}: {result}")
                continue
            s, cs = result
            faults = self._check_pair(lib, g, w, s, cs)
            if cls == "cycle" and kind == "unit" and not s.optimum == cs.optimum == (g.n + 1) // 2:
                faults.append(f"unit-weight C{g.n} gives s {s.optimum}, cs {cs.optimum}")
            key = (index, i)
            if key not in slow_faults:
                slow_faults[key] = self._slow_faults(lib, g, w, s, cs, perms.get(i))
            faults += slow_faults[key]
            if faults:
                bad.add(i)
                problems.extend(f"instance {i}: {fault}" for fault in faults)
            optima.append([str(s.optimum), str(cs.optimum)])
        digest = _sha256_lines(optima)
        pinned = OPTIMA_DIGESTS.get(state["seed"]) if index == 0 else None
        if pinned is not None and digest != pinned:
            problems.append("optima digest differs from the one committed for this seed")
        return Outcome(
            [seconds for seconds, _ in raw],
            attempted=len(batch),
            failed=len(bad),
            problems=problems,
            digest=digest,
        )

    def _slow_faults(self, lib, g, w, s, cs, perm) -> list[str]:
        faults = []
        if perm is not None and self._solve_relabelled(lib, g, w, perm) != (s.optimum, cs.optimum):
            faults.append("optimum changes under relabelling")
        if g.n <= self.exhaustive_max_order:
            faults += reference.optimality_faults(
                g.n, list(g.edges()), w, s.optimum, s.witness_set, cs.optimum, cs.witness_set
            )
        return faults

    @staticmethod
    def _check_pair(lib, g, w, s, cs) -> list[str]:
        faults = []
        for sol, label in ((s, "s"), (cs, "cs")):
            if not lib.pkg.is_safe_set(g, w, sol.witness_set):
                faults.append(f"{label} witness is not safe")
            if sum(w[v] for v in lib.pkg.vlist(sol.witness_set)) != sol.optimum:
                faults.append(f"{label} witness weight differs from the optimum")
        if len(lib.pkg.components(g, cs.witness_set)) != 1:
            faults.append("cs witness is not connected")
        if not s.optimum <= cs.optimum:
            faults.append("s exceeds cs")
        return faults

    @staticmethod
    def _solve_relabelled(lib, g, w, perm):
        h = lib.pkg.Graph.from_edges(
            g.n, [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()]
        )
        hw = [None] * g.n
        for v in range(g.n):
            hw[perm[v]] = w[v]
        s, cs = lib.pkg.solve_pair(h, tuple(hw))
        return s.optimum, cs.optimum


class Certify:
    """certify_non_membership then verify_certificate, as `safesets witness`
    and `verify-certificate` do, on seeded connected graphs of order 10-12.
    Three constructions span the densities: sparse graphs of diameter 4 or
    more (H1 or H2 route), dense bipartite-like blow-ups of K(4, k) (KMN
    route after every other search fails) and graphs with a universal vertex
    (members: every route fails, the random fallback runs, the result is
    "unknown")."""

    name = "certify"
    gens = {"sparse": gen_sparse_wide, "kmn": gen_kmn, "universal": gen_universal}
    orders = (10, 11, 12)
    repeats = 2
    # Graphs per (construction, order): 111 in all.  Each cell certifies in
    # near-equal times, and these counts put p50 and p90 inside such cells.
    counts = {"sparse": (35, 15, 35), "kmn": (10, 4, 2), "universal": (8, 1, 1)}
    # The outcomes each construction may end in ("unknown": no certificate).
    routes = {"sparse": ("H1", "H2", "H3"), "kmn": ("KMN",), "universal": ("unknown",)}

    def setup(self, lib, seed, rounds):
        batches = []
        for index in range(rounds):
            rng = random.Random(f"{self.name}:{seed}:{index}")
            batch = []
            # Ascending order, shuffled within an order: the solver's
            # 64-graph structure cache then ends up holding the same mix of
            # orders on every seed, which keeps peak memory steady.
            for i, n in enumerate(self.orders):
                cell = [
                    (cls, self.gens[cls](lib, n, rng), rng.randrange(2**32))
                    for cls, counts in self.counts.items()
                    for _ in range(counts[i])
                ]
                rng.shuffle(cell)
                batch += cell
            batches.append(batch)
        return {"batches": batches}

    def timed(self, lib, state, index, op):
        certify = lib.pkg.certify_non_membership
        verify = lib.pkg.verify_certificate
        out = []
        for i, (_, g, seed) in enumerate(state["batches"][index]):
            op(i)
            start = time.perf_counter()
            try:
                cert = certify(g, seed=seed)
                verdict = None if cert is None else verify(cert.to_json())
                result = (cert, verdict)
            except Exception as exc:  # a failing certification is counted
                result = exc
            out.append((time.perf_counter() - start, result))
        return out

    def check(self, lib, state, index, raw):
        """Every certificate must pass verify_certificate.  Each construction
        must also end where it is built to: a universal-vertex graph is a
        member, so "unknown" is its only right answer (and is no failure);
        a K(4, k) blow-up must be certified by the KMN route and a sparse
        graph by a pattern route, never unknown or by random weights."""
        problems, outputs = [], []
        failed = unknown = 0
        for i, ((cls, _, _), (_, result)) in enumerate(zip(state["batches"][index], raw)):
            if isinstance(result, Exception):
                failed += 1
                problems.append(f"graph {i}: {type(result).__name__}: {result}")
                continue
            cert, verdict = result
            pattern = "unknown" if cert is None else cert.pattern
            fault = None
            if verdict is not None and not verdict[0]:
                fault = f"certificate rejected: {'; '.join(verdict[1])}"
            elif pattern not in self.routes[cls]:
                fault = f"{cls} graph ends in {pattern}, expected {'/'.join(self.routes[cls])}"
            if fault:
                failed += 1
                problems.append(f"graph {i}: {fault}")
            unknown += cert is None
            outputs.append("unknown" if cert is None else cert.to_json())
        return Outcome(
            [seconds for seconds, _ in raw],
            attempted=len(raw),
            failed=failed,
            problems=problems,
            digest=_sha256_lines(outputs),
            notes={"unknown": unknown},
        )


WORKLOADS = {w.name: w for w in (CampaignO8(), EnumerateO8(), SolveLarge(), Certify())}
