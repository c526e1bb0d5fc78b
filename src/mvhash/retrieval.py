"""Bit-packed Hamming search over binary codes and ranking-quality metrics.

Codes are +/-1 vectors. A HashCode packs one into bytes (bit 1 encodes +1).
The index stores the codes in two layouts, both word-major and zero-padded
to uint64 words:

- per row: one contiguous row of N words per word of the code, beside the
  multi-hot labels packed to bits, one row of N per byte. evaluate()
  ranks one distinct query at a time: queries with an equal code, label
  set and own row (the corpus row of their id, if any) rank the corpus
  alike, so each such group is ranked once and its values copied to every
  member. A ranked query costs one _scan() of the rows, a label AND per
  byte row, a stable sort of its small-integer distances and one prefix
  sum over its relevant ranks. Trained codes repeat: the benchmark's 1,000
  queries hold about 205 distinct groups, and the acceptance dataset's 200
  hold 26 after one epoch and 6 after 200.
- per distinct code, built by the first search(): each of the U distinct codes
  once, in order of its first row, with the rows grouped by code, and a
  table from each code's zero-padded bytes to the list of its rows' ids, in
  row order. search() first looks the query's own code up in that table:
  when the list holds at least k ids, its first k are the answer, one dict
  lookup and one list slice with no scan. Otherwise it scans only the U
  codes with the same _scan() and finds the top k from the k-th smallest
  code distance, without a pass over the rows.
  Trained codes repeat heavily: the benchmark's 50k corpus holds 8,624
  distinct codes, 18 of which hold 81% of its rows, so about 80% of its
  queries find 10 rows in their own code, and the scan is several times
  shorter. With all codes distinct the lookup never answers at k > 1, the
  scan costs about 15% more than a scan of the rows, and the table about
  160 bytes a code (7.9 MB, built in about 22 ms). Past the scan and its
  threshold, a query costs about twenty numpy calls on the near codes and
  their rows.

With 50k items and K = 64, pack_code() + search() takes about 0.012 ms
per query, medians of ten benchmark runs on a 2-core Xeon with numpy 2.4;
pack_code() takes about 1.6 us, a query that its own code answers about
0.5 us in search() and one that scans about 30 us (in-process medians).
evaluate() takes about 0.34 ms per ranked query there, so a call costs that
times its number of distinct queries: about 0.07 s for the benchmark's
1,000 queries, of which 205 are distinct (in-process medians, same host).
_scan() is the only distance computation: one query against the N columns
of a word-major array, the index's rows or search()'s distinct codes.
Grouping all-distinct queries costs under 0.1 ms per 200.
Relevance between a query and a corpus item means their multi-hot labels
share at least one category.
"""

import csv
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .linalg import ShapeError

__all__ = [
    "HashCode",
    "HammingIndex",
    "EvalReport",
    "pack_code",
    "hamming_distance",
    "build_index",
    "search",
    "average_precision",
    "evaluate",
    "write_report_csv",
]

@dataclass(frozen=True)
class HashCode:
    k: int
    words: bytes  # packed bits, big-endian within each byte; pad bits are 0

    def __post_init__(self):
        if not isinstance(self.k, int) or type(self.k) is bool or self.k < 0:
            raise ShapeError(f"HashCode k must be a non-negative int, got {self.k!r}")
        if not isinstance(self.words, bytes):
            raise ShapeError(f"HashCode words must be bytes, got {type(self.words).__name__}")
        if len(self.words) != (self.k + 7) // 8:
            raise ShapeError(f"{len(self.words)} bytes cannot hold {self.k} bits")
        if self.words and self.words[-1] & ((1 << -self.k % 8) - 1):
            raise ShapeError(f"a {self.k}-bit code must have its pad bits 0")


def _check_signs(codes, what):
    if not ((codes == 1) | (codes == -1)).all():
        raise ShapeError(f"{what} must hold only +1/-1 entries")


# bytes.translate table: int8 +1 (byte 0x01) -> "1", -1 (0xff) -> "0", any other byte -> "x"
_BIT_DIGITS = b"x1" + b"x" * 253 + b"0"


def pack_code(bits) -> HashCode:
    """Pack a +/-1 vector into a HashCode.

    An int8 vector, as net.binarize returns, is packed without a numpy
    ufunc: its bytes are translated to binary digits, which int() reads and
    to_bytes() writes back zero-padded and big-endian; int() rejects the "x"
    of any byte that is not +/-1. Any other dtype is checked and narrowed to
    int8 first.
    """
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ShapeError("expected a 1-D +/-1 vector")
    if bits.dtype != np.int8:
        _check_signs(bits, "a code")
        bits = np.where(bits == 1, np.int8(1), np.int8(-1))
    k = len(bits)
    try:
        value = int(b"0" + bits.tobytes().translate(_BIT_DIGITS), 2)
    except ValueError:
        raise ShapeError("a code must hold only +1/-1 entries") from None
    return HashCode(k, (value << -k % 8).to_bytes((k + 7) // 8, "big"))


def _padded(packed, dtype) -> np.ndarray:
    """Zero-pad packed bytes (N, n) to whole words of dtype, at least one: (N, words).

    With one word or more, a scan over no bits still yields zeros.
    """
    size, n = np.dtype(dtype).itemsize, packed.shape[1]
    out = np.zeros((packed.shape[0], max(size, n + -n % size)), dtype=np.uint8)
    out[:, :n] = packed
    return out.view(dtype)


def _scan(words, q, k) -> np.ndarray:
    """Distances from one query's words q (W,) to the N columns of word-major codes (W, N).

    One XOR and one popcount per word, each over a contiguous row of N
    words; pad bits cancel under XOR. From the second word on the sum is
    kept in the smallest type that holds k + 1, the distance evaluate()
    gives an excluded item; one word's popcounts are uint8, which holds 65.
    """
    dist = np.bitwise_count(words[0] ^ q[0])
    if len(q) > 1:
        dist = dist.astype(np.min_scalar_type(k + 1))
        for w in range(1, len(q)):
            dist += np.bitwise_count(words[w] ^ q[w])
    return dist


def hamming_distance(a: HashCode, b: HashCode) -> int:
    """Number of differing bits."""
    if a.k != b.k:
        raise ShapeError(f"code lengths differ: {a.k} vs {b.k}")
    return int(np.bitwise_count(np.frombuffer(a.words, dtype=np.uint8)
                                ^ np.frombuffer(b.words, dtype=np.uint8)).sum())


@dataclass
class HammingIndex:
    k: int
    words: np.ndarray  # (ceil(K / 64), N) uint64 packed codes, one row per word
    ids: list
    labels: np.ndarray  # (ceil(C / 8), N) uint8 packed multi-hot labels, one row per byte
    categories: int  # C
    position: dict  # id -> row

    @cached_property
    def grouping(self) -> tuple:
        """(distinct, members, starts) of _group, built by the first search() and kept."""
        return _group(self.words)

    @cached_property
    def buckets(self) -> dict:
        """Each distinct code's zero-padded bytes -> the list of its rows' ids, in row
        order, built by the first search() and kept."""
        distinct, members, starts = self.grouping
        ids, bounds = [self.ids[i] for i in members.tolist()], starts.tolist()
        return dict(zip(_as_void(distinct).tolist(),
                        (ids[a:b] for a, b in zip(bounds, bounds[1:]))))


def _as_void(words):
    """The columns of word-major codes (W, N) as N void scalars of their bytes."""
    return words.T.copy().view(np.dtype((np.void, words.itemsize * len(words)))).ravel()


def _group(words):
    """(distinct, members, starts) of word-major codes (W, N): distinct (W, U) holds
    each distinct code once, in order of its first row, and code u's rows, ascending,
    are members[starts[u]:starts[u + 1]]."""
    _, first, inverse = np.unique(_as_void(words), return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    code = np.argsort(by_first)[inverse]  # each row's code number, in first-row order
    starts = np.zeros(by_first.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(code, minlength=by_first.size), out=starts[1:])
    return words.take(first[by_first], axis=1), np.argsort(code, kind="stable"), starts


def build_index(codes, ids, labels) -> HammingIndex:
    """Build an index from aligned +/-1 code rows, unique ids, and multi-hot labels."""
    codes, labels = np.asarray(codes), np.asarray(labels)
    if codes.ndim != 2 or labels.ndim != 2:
        raise ShapeError("codes must be a (N, K) +/-1 array and labels a (N, C) array")
    if not (len(ids) == codes.shape[0] == labels.shape[0]):
        raise ShapeError("codes, ids, and labels must be aligned")
    _check_signs(codes, "index codes")
    position = {cid: i for i, cid in enumerate(ids)}
    if len(position) != len(ids):
        raise ValueError("index ids must be unique")
    words = _padded(np.packbits(codes > 0, axis=1), np.uint64)
    packed_labels = _padded(np.packbits(labels > 0, axis=1), np.uint8)
    return HammingIndex(k=codes.shape[1], words=words.T.copy(), ids=list(ids),
                        labels=packed_labels.T.copy(), categories=labels.shape[1],
                        position=position)


def _integer(value, what) -> int:
    """value as an int; Python and numpy integers pass, anything else is a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def search(index: HammingIndex, query: HashCode, k: int):
    """Ids of the k nearest codes; ties break by ascending insertion position.

    First the query's own bucket: its bytes, zero-padded to whole words, are
    looked up in index.buckets. Pad bits are zero in every HashCode and in
    the index, so they match a code's key exactly when the codes are equal,
    and the rows at distance 0 are exactly that code's rows. When it holds
    at least k rows, no other row can rank above its first k, which members
    lists in ascending order, the tie order: they are the answer, with no
    scan.

    Otherwise only the U distinct codes are scanned: the padded bytes are
    read as the index's uint64 words and _scan() gives their distance to
    each code. Every code holds at least one row, so with t the smallest
    distance within which lie c = min(k, U) codes, the k nearest rows all
    lie within t. Fewer than c codes lie below t, and at t only the first
    c - |below| codes in first-row order can contribute: any later code's
    rows follow one row of each of them. When exactly c codes lie within
    t, none is dropped and that cut is skipped. No code contributes more
    than its first k rows. Those at most c * k candidates are ordered by
    (distance, row) and cut to k.
    """
    if not index.ids:
        raise RuntimeError("index is empty")
    k = _integer(k, "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    if query.k != index.k:
        raise ShapeError(f"query has {query.k} bits, index stores {index.k}")
    distinct, members, starts = index.grouping
    padded = query.words.ljust(8 * len(distinct), b"\0")
    hits = index.buckets.get(padded)
    if hits is not None and len(hits) >= k:
        return hits[:k]
    dist = _scan(distinct, np.frombuffer(padded, dtype=np.uint64), index.k)
    c = min(k, dist.size)
    t = dist.min()  # in dist's dtype, which holds index.k, the largest t can reach
    while (near := (dist <= t).nonzero()[0]).size < c:
        t += 1
    d = dist[near]
    # the first min(size, k) rows of each near code, keyed by (distance, row)
    lo = starts[near]
    take = np.minimum(starts[1:][near] - lo, k)
    if near.size > c:  # rows only from the first c codes by (distance, position)
        take[d.argsort(kind="stable")[c:]] = 0
    ends = take.cumsum()
    rows = members[(lo - ends + take).repeat(take) + np.arange(ends[-1])]
    n = len(index.ids)
    key = (d.astype(np.intp) * n).repeat(take)
    key += rows
    key.sort()
    return [index.ids[i] for i in (key[:k] % n).tolist()]


def average_precision(ranked_relevance, total_relevant: int, cutoff=None) -> float:
    """Mean of precision@p over relevant positions in the ranking.

    For a truncated ranking pass cutoff=K; the divisor becomes
    min(total_relevant, K). Returns 0 when nothing is relevant.
    """
    rel = np.asarray(ranked_relevance, dtype=np.float64)
    if total_relevant < 0:
        raise ValueError("total_relevant must be >= 0")
    if cutoff is not None:
        rel = rel[:cutoff]
        denom = min(total_relevant, cutoff)
    else:
        denom = total_relevant
    if denom == 0:
        return 0.0
    hits = np.cumsum(rel)
    precision_at = hits / np.arange(1, rel.size + 1)
    return float((precision_at * rel).sum() / denom)


@dataclass
class EvalReport:
    map: float
    cutoffs: list
    map_at_k: list
    recall_at_k: list
    per_query_ap: list


def evaluate(query_codes, query_ids, query_labels, index: HammingIndex,
             cutoffs=()) -> EvalReport:
    """Full-ranking mAP plus mAP@K / Recall@K at each cutoff.

    A query present in the corpus (matching id) is excluded from its own
    ranking. Deterministic: distance ties resolve by corpus position.

    Queries with an equal code, label set and own row (the corpus row of
    their id, or none) are ranked once: their distances, relevance and
    metrics are equal, so each distinct query is scanned, sorted and scored
    once and its values are copied back to every query that shares it, in
    query order, before the means. The report is the same, bit for bit, as
    ranking every query on its own.
    """
    query_codes, query_labels = np.asarray(query_codes), np.asarray(query_labels)
    if query_codes.shape[0] == 0:
        raise ValueError("empty query split")
    cutoffs = sorted(_integer(c, "a cutoff") for c in cutoffs)
    if cutoffs and cutoffs[0] < 1:
        raise ValueError(f"cutoffs must be >= 1, got {[c for c in cutoffs if c < 1]}")
    nq = query_codes.shape[0]
    if query_codes.ndim != 2 or query_codes.shape[1] != index.k:
        raise ShapeError(f"query codes have shape {query_codes.shape}, "
                         f"index stores {index.k} bits")
    if not (len(query_ids) == nq == query_labels.shape[0]):
        raise ShapeError(f"{nq} query codes, {len(query_ids)} ids and "
                         f"{query_labels.shape[0]} label rows must be aligned")
    if query_labels.ndim != 2 or query_labels.shape[1] != index.categories:
        raise ShapeError(f"query labels have shape {query_labels.shape}, "
                         f"index labels have {index.categories} categories")
    _check_signs(query_codes, "query codes")

    q_words = _padded(np.packbits(query_codes > 0, axis=1), np.uint64)
    q_labels = _padded(np.packbits(query_labels > 0, axis=1), np.uint8)
    own = np.array([index.position.get(qid, -1) for qid in query_ids], dtype=np.int64)
    key = np.concatenate([q_words.view(np.uint8), q_labels,
                          own.view(np.uint8).reshape(nq, 8)], axis=1)
    _, first, inverse = np.unique(_as_void(key.T), return_index=True, return_inverse=True)
    q_words, q_labels, own = q_words[first], q_labels[first], own[first]
    nu = first.size
    cut = np.array(cutoffs, dtype=np.int64)
    ends = np.minimum(cut, len(index.ids))
    aps, ap_at, rec_at = np.empty(nu), np.empty((nu, cut.size)), np.empty((nu, cut.size))
    for i, (q_i, labels_i, own_i) in enumerate(zip(q_words, q_labels, own.tolist())):
        dist = _scan(index.words, q_i, index.k)
        shared = index.labels[0] & labels_i[0]
        for byte in range(1, len(index.labels)):
            shared |= index.labels[byte] & labels_i[byte]
        rel = shared != 0
        if own_i >= 0:  # the query's own item ranks last and is not relevant: as if removed
            dist[own_i] = index.k + 1
            rel[own_i] = False
        hit = rel.take(dist.argsort(kind="stable")).nonzero()[0]  # rank - 1 of each relevant item
        # prec[m]: sum of precision@rank over the first m relevant items
        prec = np.zeros(hit.size + 1)
        np.divide(np.arange(1.0, hit.size + 1), hit + 1.0, out=prec[1:])
        np.add.accumulate(prec, out=prec)
        top = hit.searchsorted(ends)  # relevant items within each cutoff
        total = max(hit.size, 1)
        aps[i] = prec[-1] / total
        ap_at[i] = prec[top] / np.minimum(cut, total)
        rec_at[i] = top / total
    aps, ap_at, rec_at = aps[inverse], ap_at[inverse], rec_at[inverse]
    return EvalReport(
        map=float(np.mean(aps)),
        cutoffs=list(cutoffs),
        map_at_k=[float(x / nq) for x in ap_at.sum(axis=0)],
        recall_at_k=[float(x / nq) for x in rec_at.sum(axis=0)],
        per_query_ap=[float(a) for a in aps],
    )


def write_report_csv(report: EvalReport, path) -> None:
    """One row per cutoff, with the full-ranking mAP echoed on each row."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cutoff", "map_at_k", "recall_at_k", "map_full"])
        for c, m, r in zip(report.cutoffs, report.map_at_k, report.recall_at_k):
            writer.writerow([c, f"{m:.6f}", f"{r:.6f}", f"{report.map:.6f}"])
        if not report.cutoffs:
            writer.writerow(["", "", "", f"{report.map:.6f}"])


def format_summary(report: EvalReport) -> str:
    lines = [f"mAP (full ranking): {report.map:.4f}"]
    for c, m, r in zip(report.cutoffs, report.map_at_k, report.recall_at_k):
        lines.append(f"  @{c:<5d} mAP {m:.4f}  recall {r:.4f}")
    return "\n".join(lines)
