"""Spans recorded from outside the library, and the per-layer metrics.

The tracer replaces chosen public functions of each layer module with a
wrapper, on every ``safesets`` namespace that holds them (the package itself,
the defining module and each module that imported the name).  The namespace a
call went through names its caller.  Spans are tuples kept in memory:

    (function id, caller, tag, note, start ns, end ns, parent span, op id)

``tag`` is read from the arguments (the pattern of ``find_pattern``, the
order of ``enumerate_graph_forms``, the weight kind of ``solve_pair``) and
``note`` from the return value (match found, forms emitted, certificate
pattern and alpha).  Counts come from spans, return values and
``canonical_form.cache_info()`` only: nothing inside the library changes.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

# Graph helpers (graph.py) are sub-microsecond and called from every layer,
# so they are not wrapped: a wrapper there would mostly time itself.
LAYER_FUNCTIONS = {
    "graph6": ("parse_graph6", "to_graph6"),
    "canon": ("canonical_form",),
    "enumerate": ("enumerate_graph_forms", "enumerate_connected_graphs"),
    "family": ("classify", "classify_bipartite", "classify_chordal"),
    "contraction": ("find_pattern", "beta"),
    "witness": ("certify_non_membership", "verify_certificate"),
    "solver": ("solve_pair", "all_minimum_safe_sets", "is_safe_set"),
    "weights": ("make_weights",),
    "campaign": ("study_graph", "run_characterization_campaign", "report_to_json"),
}
PATTERNS = ("H1", "H2", "H3", "KMN")
UNKNOWN = "unknown"


def weight_kind(weights) -> str:
    """unit: all weights equal; random: integers; rational: any fraction."""
    if len(set(weights)) <= 1:
        return "unit"
    if all(getattr(x, "denominator", 0) == 1 for x in weights):
        return "random"
    return "rational"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


TAGS = {
    "find_pattern": lambda args, kwargs: _arg(args, kwargs, 1, "pattern"),
    "enumerate_graph_forms": lambda args, kwargs: _arg(args, kwargs, 0, "order"),
    "solve_pair": lambda args, kwargs: weight_kind(_arg(args, kwargs, 1, "w")),
}


def _certificate_note(cert):
    if cert is None:
        return (UNKNOWN, None)
    return (cert.pattern, cert.params.alpha if cert.params else None)


NOTES = {
    "find_pattern": lambda match: match is not None,
    "enumerate_graph_forms": len,
    "certify_non_membership": _certificate_note,
}


class Tracer:
    """Wraps the layer functions of one imported ``safesets`` and records
    spans until :meth:`uninstall`."""

    def __init__(self, namespaces: dict):
        self.namespaces = namespaces  # caller name -> module
        self.functions: list[tuple[str, str]] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.current_op = -1
        self.patched: list = []

    def op(self, index: int) -> None:
        self.current_op = index

    def install(self) -> None:
        by_id = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for name in names:
                fn = getattr(self.namespaces[layer], name)
                by_id[id(fn)] = (len(self.functions), fn)
                self.functions.append((layer, name))
        for caller, module in self.namespaces.items():
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[1] is value:
                    fid, fn = hit
                    setattr(module, attr, self._wrap(fid, caller, fn))
                    self.patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self.patched):
            setattr(module, attr, fn)
        self.patched = []

    def _wrap(self, fid: int, caller: str, fn):
        name = self.functions[fid][1]
        tag_of = TAGS.get(name)
        note_of = NOTES.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            tag = tag_of(args, kwargs) if tag_of else None
            op = self.current_op
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[index] = (fid, caller, tag, "raised", start, clock(), parent, op)
                raise
            end = clock()
            stack.pop()
            note = note_of(result) if note_of else None
            spans[index] = (fid, caller, tag, note, start, end, parent, op)
            return result

        return traced

    def write(self, path, header: str) -> None:
        """Spans as tab-separated lines: index, function, caller, tag, note,
        start ns, end ns, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\n")
            for index, (fid, caller, tag, note, start, end, parent, op) in enumerate(self.spans):
                layer, name = self.functions[fid]
                fh.write(
                    f"{index}\t{layer}.{name}\t{caller}\t{tag}\t{note}\t"
                    f"{start}\t{end}\t{parent}\t{op}\n"
                )


def _percentile(values, q: int) -> float:
    """q-th percentile (inclusive method); 0.0 when there is no sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(tracer: Tracer, canon_calls: int) -> dict:
    """Per-layer numbers from one traced pass, in seconds, milliseconds,
    counts and ratios.  Self time is a span's duration minus its children's."""
    spans = tracer.spans
    fid = {name: i for i, (_, name) in enumerate(tracer.functions)}
    dur = [s[5] - s[4] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[6] >= 0:
            child[s[6]] += dur[i]
    own = [d - c for d, c in zip(dur, child)]
    of = defaultdict(list)
    for i, s in enumerate(spans):
        of[s[0]].append(i)

    def select(name, caller=None, tag=None):
        return [
            i
            for i in of[fid[name]]
            if caller in (None, spans[i][1]) and tag in (None, spans[i][2])
        ]

    def seconds(indices, values=own):
        return sum(values[i] for i in indices) / 1e9

    def millis(indices):
        return [dur[i] / 1e6 for i in indices]

    # all_minimum_safe_sets reaches solve_pair through safe_number, so its
    # solver time is the solver-layer self time under it.
    solver_ids = {fid[n] for n in LAYER_FUNCTIONS["solver"]}
    under = [False] * len(spans)
    for i, s in enumerate(spans):
        under[i] = s[0] == fid["all_minimum_safe_sets"] or (s[6] >= 0 and under[s[6]])
    all_minima = [i for i, s in enumerate(spans) if under[i] and s[0] in solver_ids]

    forms = {}
    order8_ns = 0
    for i in of[fid["enumerate_graph_forms"]]:
        tag, note = spans[i][2], spans[i][3]
        if isinstance(note, int):
            forms[tag] = note
        if tag == 8:
            nested = sum(
                dur[j] for j in of[fid["enumerate_graph_forms"]] if spans[j][6] == i
            )
            order8_ns += dur[i] - nested

    find = of[fid["find_pattern"]]
    certs = of[fid["certify_non_membership"]]
    notes = [spans[i][3] for i in certs if isinstance(spans[i][3], tuple)]
    alphas = [a for _, a in notes if a is not None]
    doublings = [(a / 2).numerator.bit_length() - 1 for a in alphas]
    studies = millis(of[fid["study_graph"]])
    family = [i for n in LAYER_FUNCTIONS["family"] for i in of[fid[n]]]
    n_forms = sum(forms.values())

    metrics = {
        "canon.canonical_form_calls": canon_calls,
        "canon.canonical_form_s": seconds(of[fid["canonical_form"]]),
        "enumerate.forms": n_forms,
        "enumerate.dedupe_yield": n_forms / canon_calls if canon_calls else 0.0,
        "enumerate.order8_s": order8_ns / 1e9,
        "solver.solve_pair_calls": len(of[fid["solve_pair"]]),
        "solver.solve_pair_s.campaign": seconds(select("solve_pair", caller="campaign")),
        "solver.solve_pair_s.witness": seconds(select("solve_pair", caller="witness")),
        "solver.all_minima_s": seconds(all_minima),
        "weights.make_weights_s": seconds(of[fid["make_weights"]]),
    }
    for kind in ("unit", "random", "rational"):
        metrics[f"solver.{kind}_p50_ms"] = _percentile(
            millis(select("solve_pair", tag=kind)), 50
        )
    metrics["contraction.find_pattern_calls"] = len(find)
    for pattern in PATTERNS:
        metrics[f"contraction.find_pattern.{pattern}_s"] = seconds(
            select("find_pattern", tag=pattern)
        )
    metrics.update({
        "contraction.match_yield": (
            sum(1 for i in find if spans[i][3] is True) / len(find) if find else 0.0
        ),
        "contraction.beta_s": seconds(of[fid["beta"]]),
        "witness.certify_s": seconds(certs, dur),
        "witness.solves_per_cert": (
            len(select("solve_pair", caller="witness")) / len(certs) if certs else 0.0
        ),
        "witness.alpha_doublings_mean": statistics.fmean(doublings) if doublings else 0.0,
        "witness.random_fallback_ratio": (
            sum(1 for p, _ in notes if p in ("RANDOM", UNKNOWN)) / len(certs) if certs else 0.0
        ),
        "witness.verify_s": seconds(of[fid["verify_certificate"]], dur),
        "campaign.study_p50_ms": _percentile(studies, 50),
        "campaign.study_p99_ms": _percentile(studies, 99),
        "campaign.report_json_s": seconds(of[fid["report_to_json"]]),
        "family.classify_calls": len(of[fid["classify"]]),
        "family.classify_s": seconds(family),
        "graph6.parse_calls": len(of[fid["parse_graph6"]]),
        "graph6.parse_s": seconds(of[fid["parse_graph6"]]),
        "trace.spans": len(spans),
    })
    return metrics
