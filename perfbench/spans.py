"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded around calls into sparsenet's public functions and
methods, patched at class or module level (never per layer instance:
``Network.clone`` deep-copies layers and ``deepcopy`` shares function
objects, so an instance-level wrapper would follow the clone back to the
original layer). Each span is ``[name, start, end, parent, run, n]``:
``parent`` is the index of the enclosing span (-1 for none), ``run``
labels the benchmark phase or repetition, and ``n`` is a size the
derivation needs (batch size for layer calls, iterations for ``train``).

Layers have no names of their own except parameterized ones, so the
``Network.forward``/``backward`` wrappers label every layer of the net by
type and ordinal (``pool1``, ``relu2``, ``loss``) before the layer calls.
"""

import functools
import time
from contextlib import contextmanager

import sparsenet.datasets as datasets
import sparsenet.layers as layers
import sparsenet.memory as memory
import sparsenet.net as netmod
import sparsenet.protocols as protocols
import sparsenet.regularizers as regularizers
import sparsenet.synthetic as synthetic
import sparsenet.training as training

_KIND = {"MaxPool2d": "pool", "ReLU": "relu"}


def layer_labels(net):
    """{id(layer): 'layers.<topology>.<label>'} for every layer of `net`."""
    counts = {}
    out = {}
    for layer in net.layers:
        if layer.has_params:
            label = layer.name
        else:
            kind = _KIND.get(type(layer).__name__, type(layer).__name__.lower())
            counts[kind] = counts.get(kind, 0) + 1
            label = f"{kind}{counts[kind]}"
        out[id(layer)] = f"layers.{net.topology}.{label}"
    out[id(net.loss_layer)] = f"layers.{net.topology}.loss"
    return out


class Tracer:
    """Records spans while installed; ``uninstall`` restores every patch."""

    def __init__(self):
        self.spans = []
        self.run = "setup"
        self._stack = []
        self._patches = []
        self._labels = {}

    @property
    def active(self):
        return bool(self._patches)

    def open(self, name, n=0):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run, n])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, n=0):
        """A span recorded by the benchmark itself; a no-op while uninstalled."""
        if not self.active:
            yield
            return
        idx = self.open(name, n)
        try:
            yield
        finally:
            self.close(idx)

    def _patch(self, owner, attr, wrapper_factory):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper_factory(original)))

    def _wrap(self, name_of, size_of=lambda args: 0, before=None):
        """Wrapper factory: a span named ``name_of(args)`` with size
        ``size_of(args)`` around each call, after ``before(args)`` if given."""
        def factory(fn):
            def wrapper(*args, **kwargs):
                if before:
                    before(args)
                idx = self.open(name_of(args), size_of(args))
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)
            return wrapper
        return factory

    def install(self):
        if self._patches:
            return
        def timed(name, size_of=lambda args: 0):
            return self._wrap(lambda args: name, size_of)

        batch = lambda args: len(args[1])  # methods called with a batch first
        label = lambda obj: self._labels.get(id(obj), f"layers.{type(obj).__name__}")
        for cls in (layers.Conv2d, layers.MaxPool2d, layers.ReLU, layers.Linear,
                    layers.SoftmaxCrossEntropy):
            for attr, way in (("forward", "fwd"), ("backward", "bwd")):
                self._patch(cls, attr, self._wrap(lambda a, w=way: f"{label(a[0])}.{w}", batch))
        relabel = lambda args: self._labels.update(layer_labels(args[0]))
        for attr in ("forward", "backward", "predict_probs"):
            self._patch(netmod.Network, attr,
                        self._wrap(lambda a, n=f"net.{attr}": n, batch, before=relabel))
        self._patch(netmod.Network, "clone", timed("net.clone"))
        # every module that holds its own reference to a traced function
        for mod in (regularizers, training):
            self._patch(mod, "l0_project", timed("regularizers.l0_project"))
        self._patch(regularizers, "l1_shrinkage_update",
                    timed("regularizers.l1_shrinkage_update"))
        self._patch(training, "apply_regularization",
                    timed("regularizers.apply_regularization"))
        self._patch(training, "sgd_update", timed("training.sgd_update"))
        for mod in (training, protocols):
            self._patch(mod, "evaluate_accuracy", timed("training.evaluate_accuracy"))
            self._patch(mod, "train",
                        timed("training.train", lambda a: a[2].max_iterations))
        for mod in (memory, protocols):
            self._patch(mod, "report", timed("memory.report"))
        self._patch(synthetic, "make_synthetic_pair", timed("synthetic.make_synthetic_pair"))
        self._patch(datasets, "subtract_mean", timed("datasets.subtract_mean"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


class SpanIndex:
    """Durations, counts and self times derived from a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        self.by_name = {}
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children[s[3]].append(i)
            self.by_name.setdefault(s[0], []).append(i)

    def dur(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i):
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def named(self, name, runs, n=None):
        """Spans called `name` recorded in one of `runs`, of size `n` if given."""
        return [i for i in self.by_name.get(name, [])
                if self.spans[i][4] in runs and (n is None or self.spans[i][5] == n)]

    def mean(self, name, runs, scale=1.0, n=None):
        idx = self.named(name, runs, n)
        return scale * sum(self.dur(i) for i in idx) / len(idx) if idx else 0.0

    def descendants(self, i, name):
        out, todo = [], list(self.children[i])
        while todo:
            j = todo.pop()
            if self.spans[j][0] == name:
                out.append(j)
            todo.extend(self.children[j])
        return out
