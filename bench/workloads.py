"""The three workloads: set-up from the seed, closed-loop measurement, checks.

Every workload is one process with one caller that waits for each reply.
The program is driven only through its public entry points: the ``mvhash``
CLI run in-process (``cli.main``) and, for search, the functions a client
of ``mvhash.retrieval`` calls. The workload seed makes the 50k corpus;
train-b8 runs on the fixed acceptance dataset. The training seed of each
``mvhash train`` call is 0.
"""

import contextlib
import csv
import gc
import io
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mvhash import cli, data, net, retrieval, trainer

import oracle
import tracing

# setup_s is the median of at least SETUP_REPEATS set-ups and SETUP_MIN_S seconds.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0

# train-b8: the acceptance dataset and config of tests/test_acceptance.py.
# The dataset keeps the acceptance seed, 42, whatever the workload seed:
# the mAP gate is stated on it, and other datasets of the same shape need
# not pass it (dataset seed 7 ends at mAP 0.758).
ACCEPT_SYNTH = ["--categories", "4", "--view-dims", "32,32", "--train-size", "800",
                "--retrieval-size", "800", "--query-size", "200", "--sigma", "0.1",
                "--seed", "42"]
ACCEPT_TRAIN = ["--bits", "16", "--proj-dim", "32", "--epochs", "200", "--batch-size", "8",
                "--eval-every", "40", "--seed", "0"]
ACCEPT_STEPS_PER_EPOCH = 800 // 8
ACCEPT_STEPS = 200 * ACCEPT_STEPS_PER_EPOCH
ACCEPT_ROWS = 800 + 800 + 200
MAP_GATE = 0.95
TRAIN_MIN_CALLS = 2  # the determinism check compares two calls

# eval-50k and search-50k: a 50k corpus and 1k queries of 2 x 128 dims.
CORPUS_SYNTH = ["--categories", "8", "--view-dims", "128,128", "--train-size", "2000",
                "--retrieval-size", "50000", "--query-size", "1000", "--sigma", "0.1",
                "--multi-label-p", "0.2"]
CORPUS_TRAIN = ["--bits", "64", "--proj-dim", "64", "--epochs", "20", "--lr", "1e-3",
                "--eval-every", "0", "--seed", "0"]
CORPUS_ROWS = 2000 + 50000 + 1000
QUERIES = 1000
CUTOFFS = (10, 100, 1000)
REPORT_TOL = 5e-7 + 1e-9  # the report CSV rounds to 6 decimals
EVAL_BATCH = 5  # queries per evaluate() call in the timed loop of eval-50k
BATCH_TOL = 1e-9  # evaluate() reports in float64, unrounded
SEARCH_K = 10
SEARCH_MIN_QUERIES = 1000  # p99 keeps at least ten samples above it


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    out_dir: Path


@dataclass
class Outcome:
    """Operations attempted and failed; a failed output check fails its op."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def op(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems[:max(0, 5 - len(self.failures))])


@dataclass
class Result:
    setup_s: float
    outcome: Outcome
    e2e: dict  # BENCHMARK.json end_to_end name -> value
    named: dict  # this workload's metrics under their own names -> (value, unit)
    trace: dict = None


def mvhash(*argv):
    """Run the mvhash CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _must(what, code, out, err):
    if code != 0:
        raise RuntimeError(f"set-up: mvhash {what} exited {code}: {err.strip()}")


def timed_setups(make, workdir):
    """Run make(dir) repeatedly into fresh directories; (median s, last result)."""
    times, previous = [], None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        d = workdir / f"setup{len(times)}"
        result = None
        gc.collect()
        t0 = time.perf_counter()
        result = make(d)
        times.append(time.perf_counter() - t0)
        if previous is not None:
            shutil.rmtree(previous)
        previous = d
    return statistics.median(times), result


def _read_split(data_dir, split):
    """Ids and (N, C) int8 labels of a split, read from its CSV sidecar."""
    manifest = json.loads((data_dir / "manifest.json").read_text())
    with open(data_dir / manifest["splits"][split]["records"], newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    labels = np.array([[c == "1" for c in bits] for _, bits in rows], dtype=np.int8)
    return [rid for rid, _ in rows], labels


def _percentile(values, q):
    return float(np.percentile(values, q))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_ops(ctx, min_untraced, op):
    """Closed loop: op(i, tracer) until min_untraced calls and ctx.seconds.

    A traced run makes one untraced and one traced call, so the tracing
    overhead is the difference of the two.
    """
    if ctx.trace:
        op(0, None)
        tracer = tracing.Tracer()
        with tracer.install():
            op(1, tracer)
        return tracer
    start = time.perf_counter()
    i = 0
    while i < min_untraced or time.perf_counter() - start < ctx.seconds:
        op(i, None)
        i += 1
    return None


def _finish_trace(ctx, tracer, rows_per_load, untraced, traced, outcome):
    """Per-layer metrics, tracing overhead, and the span file."""
    layers, stats = tracing.layer_metrics(tracer, rows_per_load)
    layers["trace.overhead.ops_per_s"] = traced[0] - untraced[0]
    layers["trace.overhead.latency_p50_ms"] = traced[1] - untraced[1]
    layers["trace.spans"] = len(tracer.spans)
    breakdown = tracing.step_breakdown(stats)
    if breakdown and abs(breakdown["sum_us"] - breakdown["step_us"]) > 1e-6 * breakdown["step_us"]:
        outcome.op(["trace: step parts do not add up to the step time"])
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    path = ctx.out_dir / f"{ctx.workload}.spans.csv"
    tracer.write_csv(path)
    return {"layers": layers, "absent": tracer.absent, "step_breakdown": breakdown,
            "spans_file": str(path.relative_to(ctx.out_dir.parent))}


# --- train-b8 ------------------------------------------------------------------


def _read_curves(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _train_checks(rows, reference):
    problems = []
    if not all(math.isfinite(float(r["loss"])) for r in rows):
        problems.append("train: non-finite loss in curves.csv")
    final = rows[-1]["map"] if rows else ""
    if not final or float(final) < MAP_GATE:
        problems.append(f"train: final mAP {final or 'missing'} < {MAP_GATE}")
    columns = [(r["epoch"], r["loss"], r["map"]) for r in rows]
    if reference is not None and columns != reference:
        problems.append("train: curves.csv epoch,loss,map differ between equal-seed runs")
    return problems, columns


def train_b8(ctx):
    def make(d):
        _must("synth", *mvhash("synth", "--out", d, *ACCEPT_SYNTH))
        return d

    setup_s, data_dir = timed_setups(make, ctx.workdir)
    outcome = Outcome()
    calls = []  # (traced, wall_s, epoch wall_ms list)
    reference = []

    def op(i, tracer):
        run_dir = ctx.workdir / f"train{i}"
        gc.collect()
        with tracer.operation("cli.train") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            code, _, err = mvhash("train", "--data", data_dir, "--out", run_dir, *ACCEPT_TRAIN)
            wall = time.perf_counter() - t0
        if code != 0:
            outcome.op([f"train: exited {code}: {err.strip()}"])
            return
        rows = _read_curves(run_dir / "curves.csv")
        problems, columns = _train_checks(rows, reference[0] if reference else None)
        reference.append(columns)
        outcome.op(problems)
        calls.append((tracer is not None, wall, [float(r["wall_ms"]) for r in rows]))
        shutil.rmtree(run_dir)

    tracer = _run_ops(ctx, TRAIN_MIN_CALLS, op)
    untraced = [c for c in calls if not c[0]] or [(False, math.nan, [math.nan])]
    steps_per_s = statistics.median(ACCEPT_STEPS / wall for _, wall, _ in untraced)
    epochs = [ms for _, _, e in untraced for ms in e]
    p50, p95 = _percentile(epochs, 50), _percentile(epochs, 95)
    # The bounded throughput is that of the fastest epoch: on a shared host
    # the whole-call rate and the epoch median follow the neighbours' load,
    # which holds for minutes, so they stay in the record only.
    fastest_steps_per_s = ACCEPT_STEPS_PER_EPOCH / (min(epochs) / 1e3)
    named = {
        "setup_s": (setup_s, "s"),
        "train.steps_per_s": (steps_per_s, "1/s"),
        "train.steps_per_s.fastest_epoch": (fastest_steps_per_s, "1/s"),
        "train.epoch_ms.min": (min(epochs), "ms"),
        "train.epoch_ms.p50": (p50, "ms"),
        "train.epoch_ms.p95": (p95, "ms"),
        "train.epochs": (len(epochs), "count"),
        "train.calls": (len(untraced), "count"),
    }
    result = Result(setup_s, outcome, {"ops_per_s": fastest_steps_per_s}, named)
    if tracer is not None:
        traced = [c for c in calls if c[0]] or [(True, math.nan, [math.nan])]
        result.trace = _finish_trace(
            ctx, tracer, ACCEPT_ROWS, (fastest_steps_per_s, p50),
            (ACCEPT_STEPS_PER_EPOCH / (min(traced[0][2]) / 1e3), _percentile(traced[0][2], 50)),
            outcome)
    return result


# --- eval-50k and search-50k --------------------------------------------------


def _corpus(d, seed):
    """Write the 50k corpus and train its checkpoint; (data dir, checkpoint)."""
    _must("synth", *mvhash("synth", "--out", d / "data", *CORPUS_SYNTH, "--seed", seed))
    _must("train", *mvhash("train", "--data", d / "data", "--out", d / "run", *CORPUS_TRAIN))
    return d / "data", d / "run" / "checkpoint.bin"


def _encode(data_dir, checkpoint):
    """Sign codes of the query and retrieval splits, as the CLI computes them."""
    ckpt = trainer.load_checkpoint(checkpoint)
    dataset = data.load_features(data_dir)
    return (net.binarize(trainer.codes_for(dataset.query, ckpt.params)),
            net.binarize(trainer.codes_for(dataset.retrieval, ckpt.params)))


def _read_report(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return (float(rows[0]["map_full"]), [int(r["cutoff"]) for r in rows],
            [float(r["map_at_k"]) for r in rows], [float(r["recall_at_k"]) for r in rows])


def _eval_checks(report, expected):
    full, cutoffs, map_at, rec_at = report
    ref_full, ref_map_at, ref_rec_at = expected
    problems = []
    if cutoffs != list(CUTOFFS):
        problems.append(f"eval: report cutoffs {cutoffs} != {list(CUTOFFS)}")
    pairs = [("mAP", full, ref_full)]
    pairs += [(f"mAP@{c}", a, b) for c, a, b in zip(CUTOFFS, map_at, ref_map_at)]
    pairs += [(f"Recall@{c}", a, b) for c, a, b in zip(CUTOFFS, rec_at, ref_rec_at)]
    problems += [f"eval: {name} {got:.6f} != reference {want:.9f}"
                 for name, got, want in pairs if abs(got - want) > REPORT_TOL]
    return problems


def _batch_checks(report, s, per_query):
    """The per-query APs and the batch's mAP@K and Recall@K against the reference."""
    aps, ap_at, rec_at = (a[..., s:s + len(report.per_query_ap)] for a in per_query)
    got = np.concatenate([report.per_query_ap, report.map_at_k, report.recall_at_k])
    want = np.concatenate([aps, ap_at.mean(axis=1), rec_at.mean(axis=1)])
    if report.cutoffs == list(CUTOFFS) and np.allclose(got, want, rtol=0, atol=BATCH_TOL):
        return []
    return [f"evaluate: queries {s}..{s + len(aps) - 1} differ from the reference"]


def _evaluate_loop(index, queries, per_query, seconds, outcome):
    """One caller, evaluate() on EVAL_BATCH queries at a time; seconds per batch."""
    q_codes, q_ids, q_labels = queries
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        s = len(times) * EVAL_BATCH % len(q_codes)
        batch = slice(s, s + EVAL_BATCH)
        t0 = time.perf_counter()
        try:
            report = retrieval.evaluate(q_codes[batch], q_ids[batch], q_labels[batch], index,
                                        cutoffs=CUTOFFS)
        except Exception as e:  # a failed batch is a failed op, not a crash
            report = e
        times.append(time.perf_counter() - t0)
        outcome.op([f"evaluate: queries {s}.. raised {report!r}"]
                   if isinstance(report, Exception) else _batch_checks(report, s, per_query))
    return times


def eval_50k(ctx):
    setup_s, (data_dir, checkpoint) = timed_setups(lambda d: _corpus(d, ctx.seed), ctx.workdir)
    q_codes, db_codes = _encode(data_dir, checkpoint)
    q_ids, q_labels = _read_split(data_dir, "query")
    db_ids, db_labels = _read_split(data_dir, "retrieval")
    per_query = oracle.reference_per_query(q_codes, q_ids, q_labels, db_codes, db_ids,
                                           db_labels, CUTOFFS)
    expected = (float(per_query[0].mean()), list(per_query[1].mean(axis=1)),
                list(per_query[2].mean(axis=1)))
    index = retrieval.build_index(db_codes, db_ids, db_labels)
    del db_codes, db_labels
    outcome = Outcome()
    calls = []  # (traced, wall_s)

    def op(i, tracer):
        report = ctx.workdir / f"report{i}.csv"
        gc.collect()
        with tracer.operation("cli.eval") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            code, _, err = mvhash("eval", "--checkpoint", checkpoint, "--data", data_dir,
                                  "--cutoffs", ",".join(map(str, CUTOFFS)), "--out", report)
            wall = time.perf_counter() - t0
        if code != 0:
            outcome.op([f"eval: exited {code}: {err.strip()}"])
            return
        outcome.op(_eval_checks(_read_report(report), expected))
        calls.append((tracer is not None, wall))

    if ctx.trace:
        tracer = _run_ops(ctx, 1, op)
        batches = [math.nan]
    else:
        tracer = None
        op(0, None)
        gc.collect()
        batches = _evaluate_loop(index, (q_codes, q_ids, q_labels), per_query, ctx.seconds,
                                 outcome)
    walls = [wall for traced, wall in calls if not traced] or [math.nan]
    qps = statistics.median(QUERIES / w for w in walls)
    p50 = statistics.median(walls) * 1e3
    # The bounded throughput is that of the fastest evaluate() batch: on a
    # shared host the time of a whole call follows the neighbours' load,
    # which holds for minutes, so it stays in the record only.
    fastest_qps = EVAL_BATCH / min(batches)
    named = {
        "setup_s": (setup_s, "s"),
        "eval.queries_per_s": (qps, "1/s"),
        "eval.call_ms.p50": (p50, "ms"),
        "eval.call_ms.max": (max(walls) * 1e3, "ms"),
        "eval.calls": (len(walls), "count"),
        "eval.map": (expected[0], "1"),
        "evaluate.queries_per_s.fastest_batch": (fastest_qps, "1/s"),
        "evaluate.ms_per_query.p50": (_percentile(batches, 50) * 1e3 / EVAL_BATCH, "ms"),
        "evaluate.batches": (len(batches), "count"),
    }
    result = Result(setup_s, outcome, {"ops_per_s": fastest_qps}, named)
    if tracer is not None:
        traced = [wall for t, wall in calls if t] or [math.nan]
        result.trace = _finish_trace(ctx, tracer, CORPUS_ROWS, (qps, p50),
                                     (QUERIES / traced[0], traced[0] * 1e3), outcome)
    return result


def _query_loop(index, q_codes, expected, seconds, outcome, tracer=None):
    """One client, one query at a time; (latencies in s, loop wall s)."""
    latencies = []
    start = time.perf_counter()
    while len(latencies) < SEARCH_MIN_QUERIES or time.perf_counter() - start < seconds:
        i = len(latencies) % len(q_codes)
        with tracer.operation("query") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                hits = list(retrieval.search(index, retrieval.pack_code(q_codes[i]),
                                             k=SEARCH_K))
            except Exception as e:  # a failed query is a failed op, not a crash
                hits = e
            latencies.append(time.perf_counter() - t0)
        outcome.op([] if hits == expected[i] else
                    [f"search: query {i} returned {hits!r}, reference {expected[i]}"])
    return latencies, time.perf_counter() - start


def search_50k(ctx):
    def make(d):
        data_dir, checkpoint = _corpus(d, ctx.seed)
        q_codes, db_codes = _encode(data_dir, checkpoint)
        db_ids, db_labels = _read_split(data_dir, "retrieval")
        return retrieval.build_index(db_codes, db_ids, db_labels), q_codes, db_codes, db_ids

    setup_s, (index, q_codes, db_codes, db_ids) = timed_setups(make, ctx.workdir)
    expected = oracle.reference_top_k(q_codes, db_codes, db_ids, SEARCH_K)
    del db_codes
    outcome = Outcome()
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    gc.collect()
    latencies, wall = _query_loop(index, q_codes, expected, seconds, outcome)
    qps = len(latencies) / wall
    p50, p95 = _percentile(latencies, 50) * 1e3, _percentile(latencies, 95) * 1e3
    named = {
        "setup_s": (setup_s, "s"),
        "search.latency_ms.p50": (p50, "ms"),
        "search.latency_ms.p95": (p95, "ms"),
        "search.latency_ms.p99": (_percentile(latencies, 99) * 1e3, "ms"),
        "search.queries_per_s": (qps, "1/s"),
        "search.queries": (len(latencies), "count"),
    }
    result = Result(setup_s, outcome, {"ops_per_s": qps}, named)
    if ctx.trace:
        tracer = tracing.Tracer()
        gc.collect()
        with tracer.install():
            t_lat, t_wall = _query_loop(index, q_codes, expected, seconds, outcome, tracer)
        result.trace = _finish_trace(ctx, tracer, CORPUS_ROWS, (qps, p50),
                                     (len(t_lat) / t_wall, _percentile(t_lat, 50) * 1e3),
                                     outcome)
    return result


WORKLOADS = {"train-b8": train_b8, "eval-50k": eval_50k, "search-50k": search_50k}


def run(ctx):
    result = WORKLOADS[ctx.workload](ctx)
    result.e2e["setup_s"] = result.setup_s
    result.e2e["peak_rss_mb"] = _peak_rss_mb()
    result.named["peak_rss_mb"] = (result.e2e["peak_rss_mb"], "MB")
    return result
