"""Brute-force retrieval reference, independent of mvhash.retrieval.

Works on unpacked +/-1 codes: the Hamming distance is (K - <a, b>) / 2,
ranks break distance ties by corpus position (stable sort), and a query
whose id occurs in the corpus is excluded from its own ranking. Relevance
means the multi-hot labels share a category. Queries are processed in
chunks so that peak memory stays well below the program's own.
"""

import numpy as np

CHUNK = 32


def _rankings(q_codes, db_codes, own_position):
    """Yield (start, order) per chunk of queries: corpus positions by distance.

    own_position[i] is the corpus position of query i's own id, or None;
    that item is ranked last, as if removed.
    """
    k = q_codes.shape[1]
    db = np.asarray(db_codes, dtype=np.float32)
    for start in range(0, len(q_codes), CHUNK):
        q = np.asarray(q_codes[start:start + CHUNK], dtype=np.float32)
        # +/-1 inner products are small integers, exact in float32.
        dist = ((k - q @ db.T) / 2).astype(np.uint16)
        for row, j in enumerate(own_position[start:start + CHUNK]):
            if j is not None:
                dist[row, j] = k + 1
        yield start, np.argsort(dist, axis=1, kind="stable")


def reference_per_query(q_codes, q_ids, q_labels, db_codes, db_ids, db_labels, cutoffs):
    """Per-query (AP, AP@K, Recall@K) by the conventions of the module docstring.

    Returns arrays of shape (Q,), (len(cutoffs), Q) and (len(cutoffs), Q);
    their means over queries are mAP, mAP@K and Recall@K. An excluded
    corpus item sits last with relevance 0, so it changes no precision,
    total or cutoff prefix (cutoffs are below the corpus size).
    """
    position = {cid: i for i, cid in enumerate(db_ids)}
    own = [position.get(qid) for qid in q_ids]
    db_rel = np.asarray(db_labels, dtype=np.float32).T
    ranks = np.arange(1, len(db_ids) + 1)
    aps, ap_at, rec_at = [], [[] for _ in cutoffs], [[] for _ in cutoffs]
    for start, order in _rankings(q_codes, db_codes, own):
        rel = (np.asarray(q_labels[start:start + CHUNK], dtype=np.float32) @ db_rel) > 0
        for row, j in enumerate(own[start:start + CHUNK]):
            if j is not None:
                rel[row, j] = False
        ranked = np.take_along_axis(rel, order, axis=1)
        hits = np.cumsum(ranked, axis=1)
        prec = np.where(ranked, hits / ranks, 0.0)
        total = hits[:, -1]
        aps.append(np.where(total > 0, prec.sum(axis=1) / np.maximum(total, 1), 0.0))
        for i, c in enumerate(cutoffs):
            denom = np.minimum(total, c)
            ap_at[i].append(np.where(denom > 0, prec[:, :c].sum(axis=1) / np.maximum(denom, 1),
                                     0.0))
            rec_at[i].append(np.where(total > 0, hits[:, c - 1] / np.maximum(total, 1), 0.0))
    return (np.concatenate(aps), np.array([np.concatenate(a) for a in ap_at]),
            np.array([np.concatenate(r) for r in rec_at]))


def reference_top_k(q_codes, db_codes, db_ids, k):
    """Ids of the k nearest corpus codes per query; no id exclusion (as search)."""
    return [[db_ids[j] for j in row[:k]]
            for _, order in _rankings(q_codes, db_codes, [None] * len(q_codes))
            for row in order]
