"""The benchmark's tracer wraps mvhash functions by name; each name must resolve.

`bench/tracing.py` patches module attributes (`mvhash.trainer.forward_batch`,
`mvhash.retrieval.average_precision`, ...). A renamed or deleted function
makes its traced metric null, which fails the benchmark's result line. These
tests read the tracer's own tables, so they follow the benchmark when it
drops a boundary.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from mvhash.data import SynthConfig, generate_synthetic
from mvhash.trainer import TrainConfig, train

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module,attr",
                         [(m, a) for m, a, *_ in tracing.BOUNDARIES] + [tracing.BATCHES])
def test_boundary_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_traced_training_records_every_step_part():
    data = generate_synthetic(SynthConfig(categories=3, views=2, view_dims=(5, 4),
                                          train_size=24, retrieval_size=12, query_size=6,
                                          seed=1))
    tracer = tracing.Tracer()
    with tracer.install():
        train(data, TrainConfig(bits=4, proj_dim=3, epochs=2, batch_size=8, eval_every=1))
    assert tracer.absent == []
    spans = tracer.spans  # [name, start, end, parent, op, size]
    in_steps = Counter(s[0] for s in spans if s[3] >= 0 and spans[s[3]][0] == "trainer.step")
    steps = 2 * (24 // 8)
    assert sum(s[0] == "trainer.step" for s in spans) == steps
    assert in_steps == {span: steps for span in (
        "data.batches", "data.stack_views", "data.stack_labels", "net.forward_batch.train",
        "loss.total_loss", "net.backward_batch", "optim.adamw_step")}
    assert sum(s[0] == "trainer.periodic_eval" for s in spans) == 2
