"""Span tracer for the traced benchmark run.

Spans are taken from outside the program: each layer boundary is a public
function of mvhash, wrapped at the module attribute its caller resolves
(``trainer.forward_batch``, not ``net.forward_batch``, because the trainer
imported the name). Nothing inside ``src/`` changes, and the untraced run
executes the original functions.

A span is ``[name, start_ns, end_ns, parent, op, size]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the id of the
operation it belongs to (one training step, one query, or one CLI call),
and ``size`` the rows or queries the call handled, where that matters.
"""

import contextlib
import importlib
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter_ns


def _rows_out(args, kwargs, result):
    return np.shape(result)[0]


def _rows_arg0(args, kwargs, result):
    return np.shape(args[0])[0]


def _forward_name(args, kwargs):
    return "net.forward_batch.train" if kwargs.get("train_mode") else "net.forward_batch.eval"


def _forward_rows(args, kwargs, result):
    return np.shape(result[0])[0]


# (module, attribute, span name or name function, size function).
# Each boundary of the layer -> e2e table in bench/README.md, at every
# attribute through which mvhash itself reaches it.
BOUNDARIES = [
    ("mvhash.cli", "load_features", "data.load_features", None),
    ("mvhash.cli", "load_checkpoint", "trainer.load_checkpoint", None),
    ("mvhash.cli", "save_checkpoint", "trainer.save_checkpoint", None),
    ("mvhash.cli", "export_curves", "trainer.export_curves", None),
    ("mvhash.cli", "train", "trainer.train", None),
    ("mvhash.cli", "codes_for", "trainer.codes_for", _rows_out),
    ("mvhash.cli", "binarize", "net.binarize", None),
    ("mvhash.cli", "build_index", "retrieval.build_index", None),
    ("mvhash.cli", "evaluate", "retrieval.evaluate", _rows_arg0),
    ("mvhash.trainer", "stack_views", "data.stack_views", None),
    ("mvhash.trainer", "stack_labels", "data.stack_labels", None),
    ("mvhash.trainer", "forward_batch", _forward_name, _forward_rows),
    ("mvhash.trainer", "total_loss", "loss.total_loss", None),
    ("mvhash.net", "backward_batch", "net.backward_batch", None),
    ("mvhash.trainer", "adamw_step", "optim.adamw_step", None),
    ("mvhash.trainer", "_test_map", "trainer.periodic_eval", None),
    ("mvhash.trainer", "codes_for", "trainer.codes_for", _rows_out),
    ("mvhash.trainer", "binarize", "net.binarize", None),
    ("mvhash.trainer", "build_index", "retrieval.build_index", None),
    ("mvhash.trainer", "evaluate", "retrieval.evaluate", _rows_arg0),
    ("mvhash.retrieval", "pack_code", "retrieval.pack_code", None),
    ("mvhash.retrieval", "average_precision", "retrieval.average_precision", None),
    ("mvhash.retrieval", "search", "retrieval.search", None),
]

# The training step has no function of its own: a step runs from one
# request for a batch to the next, so the batch generator delimits it.
BATCHES = ("mvhash.trainer", "batches")
STEP = "trainer.step"


def _span_sources():
    """span name -> the "module.attribute" boundaries that produce it.

    Spans the benchmark opens itself (cli.train, cli.eval, query) have no
    entry and are always present.
    """
    sources = defaultdict(list)
    for module, attr, name, _ in BOUNDARIES:
        spans = [name] if isinstance(name, str) else ["net.forward_batch.train",
                                                      "net.forward_batch.eval"]
        for span in spans:
            sources[span].append(f"{module}.{attr}")
    for span in (STEP, "data.batches"):
        sources[span].append(".".join(BATCHES))
    return dict(sources)


_SOURCES = _span_sources()


class Tracer:
    """In-memory span recorder; ``install()`` patches, exit restores."""

    def __init__(self):
        self.spans = []
        self.absent = []  # "module.attribute" boundaries that no longer exist
        self._stack = []
        self._ops = 0
        self.op = 0

    # --- span bookkeeping -------------------------------------------------

    def _open(self, name, start):
        self.spans.append([name, start, 0, self._stack[-1] if self._stack else -1,
                           self.op, 0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index, end):
        # Close anything still open above `index` (a step left open by an
        # exception unwinding through the training loop).
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = end
            if top == index:
                return

    def _new_op(self):
        self._ops += 1
        self.op = self._ops

    @contextlib.contextmanager
    def operation(self, name):
        """One benchmark operation (a CLI call or a query) as a top-level span."""
        self._new_op()
        index = self._open(name, _now())
        try:
            yield
        finally:
            self._close(index, _now())

    # --- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name, size):
        tracer = self

        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            index = tracer._open(span, _now())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, _now())
            if size is not None:
                tracer.spans[index][5] = size(args, kwargs, result)
            return result

        return traced

    def _wrap_batches(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            outer_op, step = tracer.op, None
            while True:
                start = _now()
                if step is not None:
                    tracer._close(step, start)
                    tracer.op, step = outer_op, None
                try:
                    batch = next(inner)
                except StopIteration:
                    return
                end = _now()
                tracer._new_op()
                step = tracer._open(STEP, start)
                tracer.spans.append(["data.batches", start, end, step, tracer.op, 0])
                yield batch

        return traced

    @contextlib.contextmanager
    def install(self):
        """Patch every boundary that exists; record the missing ones as absent."""
        saved = []
        try:
            for module_name, attr, name, size in [*BOUNDARIES, (*BATCHES, None, None)]:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap_batches(original) if name is None
                        else self._wrap(original, name, size))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def present(self, span_name):
        """False when every attribute that feeds this span name is gone."""
        attrs = _SOURCES.get(span_name, ())
        return not attrs or any(a not in self.absent for a in attrs)

    # --- output -------------------------------------------------------------

    def write_csv(self, path):
        """All spans, one line each, times in ns relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op,size\n")
            for i, (name, start, end, parent, op, size) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - origin},{end - origin},{parent},{op},{size}\n")


class SpanStats:
    """Per span name: call count, durations, self times and sizes (ns)."""

    def __init__(self, spans):
        child = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls = defaultdict(int)
        self.durations = defaultdict(list)
        self.self_ns = defaultdict(int)
        self.sizes = defaultdict(int)
        for i, (name, start, end, _, _, size) in enumerate(spans):
            self.calls[name] += 1
            self.durations[name].append(end - start)
            self.self_ns[name] += end - start - child[i]
            self.sizes[name] += size
        self.step_children = defaultdict(int)  # ns per child name, under steps
        for name, start, end, parent, _, _ in spans:
            if parent >= 0 and spans[parent][0] == STEP:
                self.step_children[name] += end - start

    def total(self, name):
        return sum(self.durations[name])

    def mean(self, name, scale):
        n = self.calls[name]
        return self.total(name) / n / scale if n else 0.0

    def per_size(self, name, scale, per=1):
        size = self.sizes[name]
        return self.total(name) / size / scale * per if size else 0.0

    def self_mean(self, name, scale):
        n = self.calls[name]
        return self.self_ns[name] / n / scale if n else 0.0

    def percentile(self, name, q, scale):
        d = self.durations[name]
        return float(np.percentile(d, q)) / scale if d else 0.0


US, MS, S = 1e3, 1e6, 1e9


def layer_metrics(tracer, rows_per_load):
    """Per-layer metrics by name, plus ``<span>.calls`` for every span.

    A metric whose boundary no longer exists in mvhash is None (absent),
    never 0. ``rows_per_load`` is the number of records one
    ``load_features`` call reads, known from the workload's dataset.
    """
    st = SpanStats(tracer.spans)
    load_s = st.mean("data.load_features", S)
    queries = st.sizes["retrieval.evaluate"]
    per_query = (lambda ns: ns / queries / MS) if queries else (lambda ns: 0.0)
    values = {  # metric name: (span it comes from, value)
        "data.load_features.s": ("data.load_features", load_s),
        "data.load_features.rows_per_s":
            ("data.load_features", rows_per_load / load_s if load_s else 0.0),
        "data.batches.us": ("data.batches", st.mean("data.batches", US)),
        "data.stack_views.us": ("data.stack_views", st.mean("data.stack_views", US)),
        "data.stack_labels.us": ("data.stack_labels", st.mean("data.stack_labels", US)),
        "net.forward_batch.train_us":
            ("net.forward_batch.train", st.mean("net.forward_batch.train", US)),
        "net.forward_batch.eval_us_per_row":
            ("net.forward_batch.eval", st.per_size("net.forward_batch.eval", US)),
        "net.backward_batch.us": ("net.backward_batch", st.mean("net.backward_batch", US)),
        "net.binarize.ms": ("net.binarize", st.mean("net.binarize", MS)),
        "loss.total_loss.us": ("loss.total_loss", st.mean("loss.total_loss", US)),
        "optim.adamw_step.us": ("optim.adamw_step", st.mean("optim.adamw_step", US)),
        "trainer.step.us": (STEP, st.mean(STEP, US)),
        "trainer.step_self.us": (STEP, st.self_mean(STEP, US)),
        "trainer.periodic_eval.ms":
            ("trainer.periodic_eval", st.mean("trainer.periodic_eval", MS)),
        "trainer.codes_for.ms_per_1k_rows":
            ("trainer.codes_for", st.per_size("trainer.codes_for", MS, 1000)),
        "trainer.load_checkpoint.ms":
            ("trainer.load_checkpoint", st.mean("trainer.load_checkpoint", MS)),
        "trainer.save_checkpoint.ms":
            ("trainer.save_checkpoint", st.mean("trainer.save_checkpoint", MS)),
        "trainer.export_curves.ms":
            ("trainer.export_curves", st.mean("trainer.export_curves", MS)),
        "retrieval.build_index.ms":
            ("retrieval.build_index", st.mean("retrieval.build_index", MS)),
        "retrieval.evaluate.ms_per_query":
            ("retrieval.evaluate", per_query(st.total("retrieval.evaluate"))),
        "retrieval.evaluate.self_ms_per_query":
            ("retrieval.evaluate", per_query(st.self_ns["retrieval.evaluate"])),
        "retrieval.average_precision.us":
            ("retrieval.average_precision", st.mean("retrieval.average_precision", US)),
        "retrieval.search.us.p50":
            ("retrieval.search", st.percentile("retrieval.search", 50, US)),
        "retrieval.search.us.p99":
            ("retrieval.search", st.percentile("retrieval.search", 99, US)),
        "retrieval.pack_code.us": ("retrieval.pack_code", st.mean("retrieval.pack_code", US)),
        "cli.train.self_ms": ("cli.train", st.self_mean("cli.train", MS)),
        "cli.eval.self_ms": ("cli.eval", st.self_mean("cli.eval", MS)),
    }
    out = {name: value if tracer.present(span) else None
           for name, (span, value) in values.items()}
    for span in sorted({span for span, _ in values.values()}):
        out[f"{span}.calls"] = st.calls[span] if tracer.present(span) else None
    return out, st


def step_breakdown(st):
    """Mean us per step: each child span's share plus the step's own time.

    Child spans of a step are leaves, so their durations are their self
    times; the shares plus ``self`` add up to the mean traced step time.
    """
    steps = st.calls[STEP]
    if not steps:
        return None
    parts = {name: ns / steps / US for name, ns in sorted(st.step_children.items())}
    parts["self"] = st.self_ns[STEP] / steps / US
    return {"step_us": st.mean(STEP, US), "parts_us": parts,
            "sum_us": sum(parts.values())}
