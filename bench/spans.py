"""Spans around the package's public calls, for the traced run.

The tracer wraps functions from the outside: it replaces each target in
every ``graevext`` module that holds it, and ``QPSpace`` methods on the
class, so calls that one module makes into another become child spans.
A span records a name, a start, an end and its parent.  Hot leaf calls
(``signed_extension``) and generator steps (``enumerate_schemes``) are
not spans: their count and time are added to the span that is open when
they run, so a layer's self time still excludes them.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

from graevext import cli, norms, qpspace, quniform, schemes, words

LAYERS = ("words", "qpspace", "norms", "schemes", "quniform", "cli")

# (module, attribute, kind): "span" makes one span per call, "count" adds
# the call to the open span, "steps" times each step of a generator.
TARGETS = (
    (words, "parse_word", "span"),
    (words, "parse_abelian", "span"),
    (qpspace, "load_space", "span"),
    (qpspace, "QPSpace.from_json_dict", "span"),
    (qpspace, "QPSpace.validate", "span"),
    (qpspace, "signed_extension", "count"),
    (norms, "graev_norm", "span"),
    (norms, "graev_dist", "span"),
    (norms, "abelian_norm", "span"),
    (norms, "abelian_norm_balanced", "span"),
    (norms, "abelian_dist", "span"),
    (norms, "ball_member", "span"),
    (schemes, "enumerate_schemes", "steps"),
    (schemes, "pairing_cost", "span"),
    (quniform, "load_entourage", "span"),
    (quniform, "load_sequence", "span"),
    (quniform, "load_topology", "span"),
    (quniform, "composition_contained", "span"),
    (quniform, "frink_metric", "span"),
    (quniform, "universal_base", "span"),
    (quniform, "decompose_prefix", "span"),
    (quniform, "decompose_subset", "span"),
    (cli, "main", "span"),
)

# Problem size recorded on a span: reduced letters of a free word, letters
# of an abelian element (the second argument in each case).
SIZES = {
    "norms.graev_norm": lambda args: args[1].reduced_length(),
    "norms.abelian_norm": lambda args: args[1].length(),
    "norms.abelian_norm_balanced": lambda args: args[1].length(),
}

NAME, START, END, PARENT, SIZE, LEAF = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        # per group: name -> [calls, seconds] for "count" and "steps" targets
        self.counters: dict[str, dict[str, list]] = {"workload": {}, "probe": {}}
        self.group = "workload"
        self.probe_from = None
        self.from_probe: list[str] = []
        self.patches = self._patches()

    # ---- wrapping --------------------------------------------------------

    def _patches(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "graevext" or key.startswith("graevext.")]
        patches = []
        for module, path, kind in TARGETS:
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{path.rsplit('.', 1)[-1]}"
            if "." in path:
                owner = getattr(module, path.split(".")[0])
                attr = path.split(".")[1]
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(kind, name, raw.__func__))
                else:
                    wrapped = self._wrap(kind, name, raw)
                patches.append((owner, attr, raw, wrapped))
                continue
            raw = getattr(module, path)
            wrapped = self._wrap(kind, name, raw)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is raw:
                        patches.append((holder, key, raw, wrapped))
        return patches

    def _wrap(self, kind, name, fn):
        spans, stack = self.spans, self.stack
        size_of = SIZES.get(name)

        def counter():
            return self.counters[self.group].setdefault(name, [0, 0.0])

        if kind == "span":
            def span(*args, **kwargs):
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0.0]
                stack.append(len(spans))
                spans.append(rec)
                rec[START] = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[END] = perf_counter()
                    stack.pop()
                    if size_of is not None:
                        rec[SIZE] = size_of(args)
            return span

        if kind == "count":
            def count(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spent = perf_counter() - start
                    spans[stack[-1]][LEAF] += spent
                    slot = counter()
                    slot[0] += 1
                    slot[1] += spent
            return count

        def steps(*args, **kwargs):
            counter()[0] += 1
            inner = fn(*args, **kwargs)
            while True:
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    spent = perf_counter() - start
                    spans[stack[-1]][LEAF] += spent
                    counter()[1] += spent
                yield item
        return steps

    @contextmanager
    def installed(self):
        for owner, attr, _, wrapped in self.patches:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, raw, _ in self.patches:
                setattr(owner, attr, raw)

    def op(self, run):
        """Run one operation under a root span."""
        rec = ["bench.op", 0.0, 0.0, -1, None, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            return run()
        finally:
            rec[END] = perf_counter()
            self.stack.pop()

    def start_probe(self):
        self.group = "probe"
        self.probe_from = len(self.spans)

    # ---- summaries -------------------------------------------------------

    def metrics(self, workload_ops: int, probe_ops: int) -> dict:
        """Per-layer numbers from the workload's own spans.  A metric of a
        layer that the workload never enters, and a per-call time of a
        function it never calls, come from the probe spans instead; their
        names are kept in ``from_probe``.  Counts and per-operation times
        of a layer the workload enters are its own, zero included."""
        cut = len(self.spans) if self.probe_from is None else self.probe_from
        own, entered = summarize(self.spans, 0, cut, self.counters["workload"],
                                 workload_ops)
        probe, _ = summarize(self.spans, cut, len(self.spans), self.counters["probe"],
                             probe_ops)
        self.from_probe = [name for name, value in own.items()
                           if value is None or layer_of(name) not in entered]
        return {name: probe[name] if name in self.from_probe else own[name]
                for name in own}

    def dump(self, path, header: dict) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], round((s[START] - origin) * 1e6, 1),
                 round((s[END] - origin) * 1e6, 1), s[PARENT], s[SIZE],
                 round(s[LEAF] * 1e6, 1)] for s in self.spans]
        doc = dict(header, columns=["name", "start_us", "end_us", "parent",
                                    "size", "leaf_us"],
                   probe_from=self.probe_from, metrics_from_probe=self.from_probe,
                   counters=self.counters, spans=rows)
        path.write_text(json.dumps(doc, separators=(",", ":")))


def layer_of(name: str) -> str:
    return name.split(".")[0]


def summarize(spans, lo: int, hi: int, counters: dict, ops: int):
    """Metric values over ``spans[lo:hi]``, and the layers those spans
    enter.  A per-call time of a function that was never called is ``None``."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    size: dict[str, int] = {}
    children = [0.0] * (hi - lo)
    for s in spans[lo:hi]:
        if s[PARENT] >= lo:
            children[s[PARENT] - lo] += s[END] - s[START]
    layer_self = {layer: 0.0 for layer in LAYERS}
    entered = {layer_of(name) for name in counters}
    loads = 0
    load_time = 0.0
    for i, s in enumerate(spans[lo:hi]):
        name = s[NAME]
        duration = s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + duration - children[i] - s[LEAF]
        if s[SIZE] is not None:
            size[name] = size.get(name, 0) + s[SIZE]
        layer = layer_of(name)
        if layer in layer_self:
            entered.add(layer)
            layer_self[layer] += duration - children[i] - s[LEAF]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if name == "qpspace.load_space" or (name == "qpspace.from_json_dict"
                                            and parent != "qpspace.load_space"):
            loads += 1
            load_time += duration
    for name, (count, seconds) in counters.items():
        layer_self[layer_of(name)] += seconds

    def mean(names, scale, table=total):
        n = sum(calls.get(x, 0) for x in names)
        return sum(table.get(x, 0.0) for x in names) / n * scale if n else None

    def per_op(value, scale=1.0):
        return value / ops * scale

    se_calls, se_time = counters.get("qpspace.signed_extension", (0, 0.0))
    gen_calls, gen_time = counters.get("schemes.enumerate_schemes", (0, 0.0))
    abelian = ("norms.abelian_norm", "norms.abelian_norm_balanced")
    out = {
        "words.parse_word_us": mean(["words.parse_word"], 1e6),
        "words.parse_abelian_us": mean(["words.parse_abelian"], 1e6),
        "qpspace.load_ms": load_time / loads * 1e3 if loads else None,
        "qpspace.validate_ms": mean(["qpspace.validate"], 1e3),
        "qpspace.validate_calls": per_op(calls.get("qpspace.validate", 0)),
        "qpspace.signed_extension_calls": per_op(se_calls),
        "qpspace.signed_extension_ms": per_op(se_time, 1e3),
        "norms.graev_norm_ms": mean(["norms.graev_norm"], 1e3),
        "norms.graev_norm_self_ms": mean(["norms.graev_norm"], 1e3, own),
        "norms.free_reduced_letters": mean(["norms.graev_norm"], 1, size),
        "norms.abelian_norm_ms": mean(["norms.abelian_norm"], 1e3),
        "norms.abelian_norm_self_ms": mean(["norms.abelian_norm"], 1e3, own),
        "norms.abelian_norm_balanced_ms": mean(["norms.abelian_norm_balanced"], 1e3),
        "norms.abelian_letters": mean(abelian, 1, size),
        "schemes.enumerate_schemes_ms": gen_time / gen_calls * 1e3 if gen_calls else None,
        "schemes.pairing_cost_us": mean(["schemes.pairing_cost"], 1e6),
        "quniform.decompose_ms": mean(["quniform.decompose_prefix",
                                       "quniform.decompose_subset"], 1e3),
        "quniform.frink_metric_ms": mean(["quniform.frink_metric"], 1e3),
        "quniform.universal_base_ms": mean(["quniform.universal_base"], 1e3),
        "cli.main_ms": mean(["cli.main"], 1e3),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = per_op(layer_self[layer], 1e3)
    return out, entered
