"""In-memory span recorder that wraps pqgeo's public functions from outside.

A span is one call into a layer: (name, start, end, parent, pass id).
Wrappers are installed on module attributes under the name the caller
looks them up by (``pqgeo.anosov.lift_nonpositive`` for the call that
``negativity_test`` makes, ``pqgeo.cli.word_ball`` for the CLI) and are
removed again after each traced pass, so untraced passes run the
original functions. Counters are recorded at the same boundaries, from
the arguments and results of the wrapped call. Standard library only,
because the CLI launcher imports it before pqgeo.
"""

import functools
import importlib
import math
import time
from collections import defaultdict


def _ball_counts(args, kwargs, ball):
    """Elements, products tried and products kept by one word_ball call.

    Every element shorter than L is multiplied by each letter except the
    inverse of its last letter; the identity by every letter. Every
    element but the identity is a kept product.
    """
    letters = len(ball.alphabet)
    tried = sum(letters - (1 if entry.word else 0)
                for entry in ball if len(entry.word) < ball.L)
    return {"groups.ball_elements": len(ball), "groups.products_tried": tried,
            "groups.products_kept": len(ball) - 1}


def _crown_counts(args, kwargs, scan):
    points, j = args[1], args[2]
    return {"crowns.search_space": math.comb(len(points), 2 * j),
            "crowns.found": len(scan)}


# (module, attribute, span name, counter function or None)
LIBRARY_WRAPS = [
    ("pqgeo.groups", "word_ball", "groups.word_ball", _ball_counts),
    ("pqgeo.groups", "signature_scan", "groups.signature_scan", None),
    ("pqgeo.groups", "det_roots", "groups.det_roots", None),
    ("pqgeo.groups", "lie_closure_dim", "groups.lie_closure", None),
    ("pqgeo.groups", "bend_amalgam", "groups.bend", None),
    ("pqgeo.groups", "bend_hnn", "groups.bend", None),
    ("pqgeo.anosov", "gap_series", "anosov.gap_series", None),
    ("pqgeo.anosov", "sample_limit_set", "anosov.limit_set",
     lambda a, k, pts: {"anosov.limit_points": len(pts)}),
    ("pqgeo.anosov", "limit_cone_sample", "anosov.limit_cone",
     lambda a, k, rays: {"anosov.cone_rays": len(rays)}),
    ("pqgeo.anosov", "negativity_test", "anosov.negativity", None),
    ("pqgeo.anosov", "lift_nonpositive", "model.lift_nonpositive", None),
    ("pqgeo.model", "pair_class", "model.pair_class",
     lambda a, k, cls: {"model.pairs_classified": 1}),
    ("pqgeo.model", "pair_class_conformal", "model.pair_class_conformal",
     None),
    ("pqgeo.model", "hilbert_distance", "model.hilbert_distance", None),
    ("pqgeo.graphs", "lipschitz_check", "graphs.lipschitz_check", None),
    ("pqgeo.graphs", "split_spacetime", "graphs.split_spacetime", None),
    ("pqgeo.graphs.LipschitzGraph", "points", "graphs.points", None),
    ("pqgeo.crowns", "detect_crowns", "crowns.detect", _crown_counts),
]

# The same functions under the names pqgeo.cli imported them by.
CLI_NAMES = {"word_ball", "signature_scan", "det_roots", "bend_amalgam",
             "bend_hnn", "gap_series", "sample_limit_set", "limit_cone_sample",
             "negativity_test", "pair_class", "hilbert_distance",
             "lipschitz_check", "detect_crowns"}
CLI_WRAPS = [("pqgeo.cli", attr, name, counts)
             for _, attr, name, counts in LIBRARY_WRAPS
             if attr in CLI_NAMES] + [
    ("pqgeo.anosov", "lift_nonpositive", "model.lift_nonpositive", None)]


def _resolve(path):
    """Module or class object for a dotted path such as pqgeo.graphs.X."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Tracer:
    """Collects spans and counters for the passes run while installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.samples = defaultdict(lambda: defaultdict(list))
        self.pass_id = None
        self._stack = []
        self._saved = []

    def wrap(self, fn, name, counts=None):
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.pass_id)
            if counts is not None:
                bucket = tracer.counts[tracer.pass_id]
                for key, value in counts(args, kwargs, result).items():
                    bucket[key] += value
            return result

        return traced

    def install(self, wraps):
        """Replace each listed attribute by its traced wrapper."""
        for path, attr, name, counts in wraps:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, counts))
        self._install_census()

    def _install_census(self):
        """Time the signature censuses that crown detection requests.

        detect_crowns and Crown call ``QuadraticSpace(gram).signature``
        through the name pqgeo.crowns imported; a subclass under that
        name records construction and the signature property as
        ``forms.census`` spans and counts one census per signature.
        """
        crowns = _resolve("pqgeo.crowns")
        base = crowns.QuadraticSpace
        init = self.wrap(base.__init__, "forms.census")
        signature = self.wrap(base.signature.fget, "forms.census",
                              lambda a, k, r: {"crowns.census_calls": 1})

        class CensusSpace(base):
            def __init__(self, gram, tol=None):
                init(self, gram, tol)

            @property
            def signature(self):
                if self._signature is None:
                    return signature(self)
                return self._signature

        self._saved.append((crowns, "QuadraticSpace", base))
        crowns.QuadraticSpace = CensusSpace

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def start_pass(self, pass_id):
        self.pass_id = pass_id

    def add_spans(self, spans):
        """Merge spans recorded by a child process into the current pass."""
        offset = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append((name, start, end,
                               parent + offset if parent >= 0 else -1,
                               self.pass_id))

    def add_counts(self, counts):
        bucket = self.counts[self.pass_id]
        for key, value in counts.items():
            bucket[key] += value

    def add_sample(self, name, value):
        """One per-operation value, such as one CLI command's start-up."""
        self.samples[self.pass_id][name].append(value)


def span_table(spans):
    """Per pass and span name: calls, inclusive seconds and self seconds.

    Inclusive time sums only the outermost span of each name, so a name
    nested inside itself is not counted twice. Self time is a span's
    duration minus the part its direct children cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for index, (name, start, end, parent, pass_id) in enumerate(spans):
        row = table[pass_id][name]
        row[0] += 1
        row[2] += (end - start) - child_time[index]
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < 0:
            row[1] += end - start
    return table
