import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvhash import retrieval
from mvhash.linalg import ShapeError
from mvhash.retrieval import (EvalReport, HashCode, average_precision, build_index, evaluate,
                              hamming_distance, pack_code, search, write_report_csv)


def random_codes(rng, n, k):
    return rng.choice([-1, 1], size=(n, k)).astype(np.int8)


def unpack(code):
    """The int8 +/-1 vector a HashCode packs."""
    bits = np.unpackbits(np.frombuffer(code.words, dtype=np.uint8))[:code.k]
    return np.where(bits > 0, 1, -1).astype(np.int8)


def naive_hamming(a, b):
    return int(np.sum(np.asarray(a) != np.asarray(b)))


def naive_search(codes, ids, query, k):
    dists = [naive_hamming(c, query) for c in codes]
    order = sorted(range(len(ids)), key=lambda i: (dists[i], i))
    return [ids[i] for i in order[:k]]


def naive_ap(rel, total, cutoff=None):
    if cutoff is not None:
        rel = rel[:cutoff]
        total = min(total, cutoff)
    if total == 0:
        return 0.0
    score, hits = 0.0, 0
    for p, r in enumerate(rel, start=1):
        if r:
            hits += 1
            score += hits / p
    return score / total


def naive_evaluate(corpus, ids, c_labels, queries, q_ids, q_labels, cutoffs):
    """(per-query AP, mAP@K, Recall@K), each query dropped from its own ranking."""
    aps, ap_at, rec_at = [], np.zeros(len(cutoffs)), np.zeros(len(cutoffs))
    for q, qid, ql in zip(queries, q_ids, q_labels):
        keep = [i for i in range(len(ids)) if ids[i] != qid]
        order = sorted(keep, key=lambda i: (naive_hamming(corpus[i], q), i))
        rel = [1 if int(c_labels[i] @ ql) > 0 else 0 for i in order]
        total = sum(rel)
        aps.append(naive_ap(rel, total))
        for ci, c in enumerate(cutoffs):
            ap_at[ci] += naive_ap(rel, total, cutoff=c)
            rec_at[ci] += sum(rel[:c]) / total if total else 0.0
    return aps, list(ap_at / len(aps)), list(rec_at / len(aps))


class TestPacking:
    def test_round_trip_examples(self):
        for bits in ([1, -1, 1], [1] * 16, [-1] * 37):
            v = np.array(bits, dtype=np.int8)
            assert np.array_equal(unpack(pack_code(v)), v)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=130))
    def test_round_trip_property(self, bits):
        v = np.array(bits, dtype=np.int8)
        assert np.array_equal(unpack(pack_code(v)), v)

    def test_pad_bits_zero(self):
        code = pack_code(np.ones(5, dtype=np.int8))
        assert np.frombuffer(code.words, dtype=np.uint8)[0] & 0b00000111 == 0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_packbits(self, data):
        bits = data.draw(packing_inputs())
        try:
            expected = reference_pack(bits)
        except ShapeError as e:
            with pytest.raises(ShapeError) as exc:
                pack_code(bits)
            assert str(exc.value) == str(e)
        else:
            assert pack_code(bits) == expected

    @pytest.mark.parametrize("k", [1, 9, 64])
    def test_every_other_int8_byte_rejected(self, k):
        bits = np.where(np.arange(k) % 3 == 0, 1, -1).astype(np.int8)
        for value in set(range(-128, 128)) - {1, -1}:
            for at in range(k):
                bad = bits.copy()
                bad[at] = value
                with pytest.raises(ShapeError, match=r"^a code must hold only \+1/-1 entries$"):
                    pack_code(bad)


def reference_pack(bits):
    """pack_code by np.packbits, with the sign check as a loop over the entries."""
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ShapeError("expected a 1-D +/-1 vector")
    if not all(x == 1 or x == -1 for x in bits.tolist()):
        raise ShapeError("a code must hold only +1/-1 entries")
    return HashCode(len(bits), np.packbits(bits > 0).tobytes())


PACKING_DTYPES = [np.int8, np.int16, np.int64, np.uint8, np.float16, np.float32, np.float64,
                  np.bool_, object, list]


@st.composite
def packing_inputs(draw):
    """A +/-1 vector of 0-130 entries, sometimes with one entry that is not a
    sign, as an array of one of PACKING_DTYPES (maybe a strided view) or a list."""
    k = draw(st.integers(0, 130))
    kind = draw(st.sampled_from(PACKING_DTYPES))
    floating = kind in (np.float16, np.float32, np.float64, object, list)
    values = np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k)),
                      dtype=np.float64 if floating else np.int64)
    if k and draw(st.booleans()):
        bad = [0, 2, -2, 3, 127] + ([0.5, -1.5, np.nan, np.inf] if floating else [])
        values[draw(st.integers(0, k - 1))] = draw(st.sampled_from(bad))
    if kind is list:
        return values.tolist()
    bits = values.astype(kind)
    stride = draw(st.sampled_from([1, 2, -1]))
    if stride != 1:  # the same entries, read through a strided view of a larger array
        wide = np.zeros(2 * k, dtype=bits.dtype)
        wide[::2] = bits
        bits = wide[::2] if stride == 2 else wide[::-2][::-1]
    return bits


class TestHammingDistance:
    def test_identical(self):
        a = pack_code(np.ones(32, dtype=np.int8))
        assert hamming_distance(a, a) == 0

    def test_complement(self):
        a = np.ones(32, dtype=np.int8)
        assert hamming_distance(pack_code(a), pack_code(-a)) == 32

    def test_hand_count_and_inner_product(self):
        a = np.ones(8, dtype=np.int8)
        b = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=np.int8)
        d = hamming_distance(pack_code(a), pack_code(b))
        assert d == 4
        assert d == 0.5 * (8 - int(a @ b))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            hamming_distance(pack_code(np.ones(8, dtype=np.int8)),
                             pack_code(np.ones(16, dtype=np.int8)))

    def test_inner_product_identity_all_lengths(self):
        rng = np.random.default_rng(0)
        for K in (16, 32, 64, 128):
            for _ in range(200):
                a = rng.choice([-1, 1], size=K)
                b = rng.choice([-1, 1], size=K)
                d = hamming_distance(pack_code(a), pack_code(b))
                assert d == 0.5 * (K - int(a @ b))


class TestSearch:
    def test_exact_match_ranks_first(self):
        rng = np.random.default_rng(1)
        codes = random_codes(rng, 20, 16)
        index = build_index(codes, [str(i) for i in range(20)],
                            np.ones((20, 1), dtype=np.int8))
        assert search(index, pack_code(codes[7]), 3)[0] == "7"

    def test_k_clamped_to_index_size(self):
        rng = np.random.default_rng(2)
        codes = random_codes(rng, 5, 8)
        index = build_index(codes, list("abcde"), np.ones((5, 1), dtype=np.int8))
        assert len(search(index, pack_code(codes[0]), 50)) == 5

    @pytest.mark.parametrize("k", [2**63, 10**30])
    @pytest.mark.parametrize("distinct", [True, False])  # five codes, or one for every row
    def test_huge_k_returns_the_whole_index(self, k, distinct):
        rng = np.random.default_rng(2)
        codes = random_codes(rng, 5, 8) if distinct else np.ones((5, 8), dtype=np.int8)
        index = build_index(codes, list("abcde"), np.ones((5, 1), dtype=np.int8))
        for q in [*codes, random_codes(rng, 1, 8)[0]]:
            assert search(index, pack_code(q), k) == search(index, pack_code(q), 5)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        codes = random_codes(rng, 50, 16)
        ids = [f"id{i}" for i in range(50)]
        index = build_index(codes, ids, np.ones((50, 1), dtype=np.int8))
        for _ in range(20):
            q = rng.choice([-1, 1], size=16).astype(np.int8)
            assert search(index, pack_code(q), 50) == naive_search(codes, ids, q, 50)

    def test_empty_index(self):
        index = build_index(np.zeros((0, 8)), [], np.zeros((0, 1)))
        with pytest.raises(RuntimeError):
            search(index, pack_code(np.ones(8, dtype=np.int8)), 1)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0, 1])[0] == 1.0

    def test_hand_evaluation(self):
        # relevant at positions 2 and 4: (1/2 + 2/4) / 2
        assert average_precision([1, 3])[0] == pytest.approx(0.5)

    def test_nothing_relevant(self):
        ap, ap_at, rec_at = average_precision([], cutoffs=(1, 3))
        assert ap == 0.0 and list(ap_at) == [0.0, 0.0] and list(rec_at) == [0.0, 0.0]

    def test_truncated_divisor(self):
        # 5 relevant in all, cutoff 2: AP@2 divides by min(5, 2), Recall@2 by 5
        _, ap_at, rec_at = average_precision([0, 1, 3, 4, 5], cutoffs=(2,))
        assert list(ap_at) == [1.0] and list(rec_at) == [0.4]

    def test_matches_naive(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            rel = rng.integers(0, 2, size=rng.integers(1, 30)).tolist()
            cutoffs = sorted(set(rng.integers(1, 35, size=rng.integers(0, 4)).tolist()))
            ap, ap_at, rec_at = average_precision(np.flatnonzero(rel), cutoffs)
            total = sum(rel)
            assert ap == pytest.approx(naive_ap(rel, total), abs=1e-15)
            assert list(ap_at) == pytest.approx([naive_ap(rel, total, c) for c in cutoffs],
                                                abs=1e-15)
            assert list(rec_at) == pytest.approx(
                [sum(rel[:c]) / total if total else 0.0 for c in cutoffs], abs=1e-15)


class TestEvaluate:
    def build(self, rng, n_corpus, n_query, k=16, categories=3):
        corpus = random_codes(rng, n_corpus, k)
        queries = random_codes(rng, n_query, k)
        c_labels = np.eye(categories, dtype=np.int8)[rng.integers(categories, size=n_corpus)]
        q_labels = np.eye(categories, dtype=np.int8)[rng.integers(categories, size=n_query)]
        index = build_index(corpus, [f"c{i}" for i in range(n_corpus)], c_labels)
        return corpus, queries, c_labels, q_labels, index

    def test_perfect_codes_unique_labels(self):
        codes = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int8)
        labels = np.eye(4, dtype=np.int8)
        index = build_index(codes, [f"db{i}" for i in range(4)], labels)
        report = evaluate(codes, [f"q{i}" for i in range(4)], labels, index)
        assert report.map == 1.0

    def test_matches_naive_full_scan(self):
        rng = np.random.default_rng(5)
        corpus, queries, c_labels, q_labels, index = self.build(rng, 100, 30)
        cutoffs = (1, 5, 10, 50)
        report = evaluate(queries, [f"q{i}" for i in range(30)], q_labels, index,
                          cutoffs=cutoffs)

        naive_aps, naive_ap_at, naive_rec_at = [], np.zeros(4), np.zeros(4)
        for qi in range(30):
            dists = [naive_hamming(c, queries[qi]) for c in corpus]
            order = sorted(range(100), key=lambda i: (dists[i], i))
            rel = [1 if c_labels[i] @ q_labels[qi] > 0 else 0 for i in order]
            total = sum(rel)
            naive_aps.append(naive_ap(rel, total))
            for ci, c in enumerate(cutoffs):
                naive_ap_at[ci] += naive_ap(rel, total, cutoff=c)
                naive_rec_at[ci] += sum(rel[:c]) / total if total else 0.0

        assert report.map == pytest.approx(np.mean(naive_aps), abs=1e-15)
        assert report.per_query_ap == pytest.approx(naive_aps, abs=1e-15)
        assert report.map_at_k == pytest.approx(list(naive_ap_at / 30), abs=1e-15)
        assert report.recall_at_k == pytest.approx(list(naive_rec_at / 30), abs=1e-15)

    def test_recall_monotone_in_cutoff(self):
        rng = np.random.default_rng(6)
        _, queries, _, q_labels, index = self.build(rng, 80, 10)
        report = evaluate(queries, [f"q{i}" for i in range(10)], q_labels, index,
                          cutoffs=range(1, 81))
        assert np.all(np.diff(report.recall_at_k) >= -1e-15)
        assert all(0.0 <= m <= 1.0 for m in report.map_at_k)

    @pytest.mark.parametrize("huge", [2**63, 10**30])
    def test_cutoff_past_the_corpus_reads_as_its_size(self, huge):
        rng = np.random.default_rng(10)
        _, queries, _, q_labels, index = self.build(rng, 40, 6)
        report = evaluate(queries, [f"q{i}" for i in range(6)], q_labels, index,
                          cutoffs=(5, 40, 41, huge))
        assert report.cutoffs == [5, 40, 41, huge]
        assert report.map_at_k[1:] == [report.map_at_k[1]] * 3
        assert report.recall_at_k[1:] == [report.recall_at_k[1]] * 3

    def test_cutoff_past_an_empty_corpus_reads_as_one(self):
        index = build_index(np.zeros((0, 8)), [], np.zeros((0, 3)))
        report = evaluate(np.ones((2, 8)), ["q0", "q1"], np.eye(3)[:2], index,
                          cutoffs=(1, 2**63))
        assert report.cutoffs == [1, 2**63]
        assert report.map_at_k == report.recall_at_k == [0.0, 0.0]

    def test_query_excluded_from_own_ranking(self):
        codes = np.array([[1, 1, 1, 1], [-1, -1, -1, -1]], dtype=np.int8)
        labels = np.array([[1, 0], [0, 1]], dtype=np.int8)
        index = build_index(codes, ["a", "b"], labels)
        # the query shares id "a" with the corpus; only "b" remains, dissimilar
        report = evaluate(codes[:1], ["a"], labels[:1], index)
        assert report.map == 0.0

    @pytest.mark.parametrize("cutoffs", [(), (5,), (1, 10, 400)])
    def test_scores_through_average_precision(self, monkeypatch, cutoffs):
        rng = np.random.default_rng(9)
        _, queries, _, q_labels, index = self.build(rng, 40, 3)
        rows = [0, 1, 0, 2, 1, 2]
        # rows 3 and 5 share code and labels, but row 3's id is corpus row 3's
        q_ids = ["a", "b", "a", "c3", "b", "d"]
        calls, score = [], retrieval.average_precision

        def spy(ranks, cut):
            calls.append((ranks, list(cut)))
            return score(ranks, cut)
        monkeypatch.setattr(retrieval, "average_precision", spy)
        evaluate(queries[rows], q_ids, q_labels[rows], index, cutoffs=cutoffs)
        assert len(calls) == 4  # one per distinct (code, labels, own row)
        for ranks, cut in calls:  # a cutoff past the 40 corpus items reads as 40
            assert cut == [min(c, 40) for c in cutoffs] and np.all(np.diff(ranks) > 0)

    def test_no_categories_nothing_relevant(self):
        codes = random_codes(np.random.default_rng(10), 5, 8)
        index = build_index(codes, [f"c{i}" for i in range(5)], np.zeros((5, 0)))
        report = evaluate(codes, [f"q{i}" for i in range(5)], np.zeros((5, 0)), index,
                          cutoffs=(1, 3))
        assert report.map == 0.0 and report.map_at_k == report.recall_at_k == [0.0, 0.0]

    def test_empty_query_split(self):
        rng = np.random.default_rng(7)
        *_, index = self.build(rng, 10, 2)
        with pytest.raises(ValueError):
            evaluate(np.zeros((0, 16)), [], np.zeros((0, 3)), index)


def test_report_csv_round_trip(tmp_path):
    report = EvalReport(map=0.75, cutoffs=[1, 5], map_at_k=[0.9, 0.8],
                        recall_at_k=[0.1, 0.4], per_query_ap=[0.7, 0.8])
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "cutoff,map_at_k,recall_at_k,map_full"
    assert lines[1].split(",") == ["1", "0.900000", "0.100000", "0.750000"]
    assert len(lines) == 3


class TestValidation:
    def index(self, n=6, k=8, categories=3):
        rng = np.random.default_rng(8)
        labels = np.eye(categories, dtype=np.int8)[rng.integers(categories, size=n)]
        return build_index(random_codes(rng, n, k), [f"c{i}" for i in range(n)], labels)

    @pytest.mark.parametrize("bad", [(-3,), (0,), (5, 0, 2)])
    def test_non_positive_cutoff_named(self, bad):
        index = self.index()
        with pytest.raises(ValueError) as exc:
            evaluate(np.ones((2, 8)), ["q0", "q1"], np.eye(3)[:2], index, cutoffs=bad)
        message = str(exc.value)
        assert "\n" not in message
        assert str(min(bad)) in message

    def test_repeated_cutoff_named(self):
        with pytest.raises(ValueError, match="^cutoff 5 is repeated$"):
            evaluate(np.ones((2, 8)), ["q0", "q1"], np.eye(3)[:2], self.index(),
                     cutoffs=(5, 1, 5))

    @pytest.mark.parametrize("ids,labels", [
        (["q0"], np.eye(3)[:2]),  # short ids
        (["q0", "q1", "q2"], np.eye(3)[:2]),  # long ids
        (["q0", "q1"], np.eye(3)[:1]),  # short label rows
        (["q0", "q1"], np.ones((2, 4))),  # label width differs from the index
    ])
    def test_query_alignment(self, ids, labels):
        with pytest.raises(ShapeError):
            evaluate(np.ones((2, 8)), ids, labels, self.index())

    @pytest.mark.parametrize("codes,labels,name", [
        (np.ones(()), np.eye(3)[:2], "query codes"),
        (np.ones(8), np.eye(3)[:2], "query codes"),
        (np.ones((2, 8, 1)), np.eye(3)[:2], "query codes"),
        (np.ones((2, 8)), np.ones(()), "query labels"),
        (np.ones((2, 8)), np.ones(3), "query labels"),
        (np.ones((2, 8)), np.ones((2, 3, 1)), "query labels"),
    ])
    def test_rank_checked_before_rows(self, codes, labels, name):
        shape = (codes if name == "query codes" else labels).shape
        with pytest.raises(ShapeError) as exc:
            evaluate(codes, ["q0", "q1"], labels, self.index())
        assert str(exc.value).startswith(f"{name} have shape {shape}, index ")
        assert "\n" not in str(exc.value)

    def test_query_code_width(self):
        with pytest.raises(ShapeError):
            evaluate(np.ones((2, 16)), ["q0", "q1"], np.eye(3)[:2], self.index())

    def test_only_sign_codes(self):
        with pytest.raises(ShapeError):
            pack_code(np.array([1, 0, -1]))
        with pytest.raises(ShapeError):
            build_index(np.zeros((3, 8)), ["a", "b", "c"], np.ones((3, 1)))
        codes = np.ones((2, 8))
        codes[1, 3] = 0.5
        with pytest.raises(ShapeError):
            evaluate(codes, ["q0", "q1"], np.eye(3)[:2], self.index())

    @pytest.mark.parametrize("caller", ["pack_code", "build_index", "evaluate"])
    def test_complex_unit_entries(self, caller):
        codes = np.ones((2, 8), dtype=complex)
        codes[1, 2] = -1j
        call = {"pack_code": lambda: pack_code(codes[1]),
                "build_index": lambda: build_index(codes, ["a", "b"], np.ones((2, 1))),
                "evaluate": lambda: evaluate(codes, ["q0", "q1"], np.eye(3)[:2], self.index())}
        with pytest.raises(ShapeError, match=r"must hold only \+1/-1 entries$"):
            call[caller]()

    def test_true_is_plus_one(self):
        assert pack_code(np.ones(10, dtype=bool)) == pack_code(np.ones(10, dtype=np.int8))
        assert pack_code([True, -1]) == pack_code(np.array([1, -1], dtype=np.int8))

    @pytest.mark.parametrize("k,words,field", [
        (8, bytearray(b"\xaf"), "words"),
        (8, "a", "words"),
        (8, [175], "words"),
        (-1, b"", "k"),
        (True, b"\x80", "k"),
        (8.0, b"\xaf", "k"),
        ("8", b"\xaf", "k"),
    ])
    def test_hash_code_types(self, k, words, field):
        with pytest.raises(ShapeError, match=f"^HashCode {field} must be ") as exc:
            HashCode(k, words)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("k", [2.5, 2.0, np.float64(2.0), "2", None])
    def test_search_k_not_an_integer(self, k):
        with pytest.raises(ValueError, match="^k must be an integer, got ") as exc:
            search(self.index(), pack_code(np.ones(8, dtype=np.int8)), k)
        assert repr(k) in str(exc.value)

    @pytest.mark.parametrize("k", [np.int64(2), np.int8(3), np.uint16(4), True])
    def test_search_k_integer_types(self, k):
        index, q = self.index(), pack_code(np.ones(8, dtype=np.int8))
        assert search(index, q, k) == search(index, q, int(k))

    @pytest.mark.parametrize("bad", [(1.9,), (5, 2.0), (np.float32(3),), ("10",)])
    def test_cutoff_not_an_integer(self, bad):
        with pytest.raises(ValueError, match="^a cutoff must be an integer, got ") as exc:
            evaluate(np.ones((2, 8)), ["q0", "q1"], np.eye(3)[:2], self.index(), cutoffs=bad)
        assert "\n" not in str(exc.value)

    def test_cutoff_integer_types(self):
        args = np.ones((2, 8)), ["q0", "q1"], np.eye(3)[:2], self.index()
        assert (evaluate(*args, cutoffs=np.array([1, 4], dtype=np.int16))
                == evaluate(*args, cutoffs=(1, 4)))

    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="unique"):
            build_index(np.ones((2, 8)), ["a", "a"], np.ones((2, 1)))

    @pytest.mark.parametrize("k", [0, -1, -50])
    def test_search_k_below_one(self, k):
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            search(self.index(), pack_code(np.ones(8, dtype=np.int8)), k)

    @pytest.mark.parametrize("bits", [1, 7, 9, 16, 64, 72])  # 1 and 7 fill one byte, as 8 does
    def test_search_query_width(self, bits):
        with pytest.raises(ShapeError, match=f"^query has {bits} bits, index stores 8$"):
            search(self.index(), pack_code(np.ones(bits, dtype=np.int8)), 1)

    @pytest.mark.parametrize("shape", [(), (1, 8), (2, 4), (8, 1)])
    def test_pack_code_needs_a_vector(self, shape):
        with pytest.raises(ShapeError, match="^expected a 1-D"):
            pack_code(np.ones(shape, dtype=np.int8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0, -2.0, 0.5, 0.0])
    def test_pack_code_only_signs(self, bad):
        bits = np.ones(8)
        bits[3] = bad
        with pytest.raises(ShapeError, match=r"^a code must hold only \+1/-1 entries$"):
            pack_code(bits)

    @pytest.mark.parametrize("k", [1, 7, 10, 63, 64, 130])
    def test_pad_bits_must_be_zero(self, k):
        bits = np.ones(k, dtype=np.int8)
        bits[-1] = -1
        code = pack_code(bits)
        assert HashCode(k, code.words) == code
        words = code.words[:-1] + bytes([code.words[-1] | 1])  # the last bit of the last byte
        if k % 8 == 0:  # a code bit, not a pad bit
            assert unpack(HashCode(k, words))[-1] == 1
        else:
            with pytest.raises(ShapeError, match=f"^a {k}-bit code must have its pad bits 0$"):
                HashCode(k, words)


@st.composite
def retrieval_cases(draw):
    """A corpus, queries and cutoffs with many ties, own ids and wide codes."""
    k = draw(st.sampled_from([1, 7, 8, 63, 64, 65, 130]))
    n = draw(st.integers(1, 40))
    nq = draw(st.integers(1, 35))
    kinds = draw(st.integers(1, nq))  # queries drawn from a few (code, labels, id) repeat
    categories = draw(st.integers(1, 10))
    distinct = draw(st.integers(1, 6))  # codes drawn from a few rows tie often
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = random_codes(rng, distinct, k)
    corpus = pool[rng.integers(distinct, size=n)]
    queries = np.where(rng.random((kinds, k)) < 0.2, -pool[rng.integers(distinct, size=kinds)],
                       pool[rng.integers(distinct, size=kinds)]).astype(np.int8)
    ids = [f"c{i}" for i in range(n)]
    q_ids = [f"c{rng.integers(n)}" if rng.random() < 0.5 else f"q{i}" for i in range(kinds)]
    c_labels = (rng.random((n, categories)) < 0.3).astype(np.int8)
    q_labels = (rng.random((kinds, categories)) < 0.3).astype(np.int8)
    # every kind at least once, the rest repeats, in shuffled order
    rows = rng.permutation(np.concatenate([np.arange(kinds),
                                           rng.integers(kinds, size=nq - kinds)]))
    queries, q_labels, q_ids = queries[rows], q_labels[rows], [q_ids[r] for r in rows]
    cutoffs = draw(st.lists(st.integers(1, n + 5), max_size=4, unique=True))
    return corpus, ids, c_labels, queries, q_ids, q_labels, cutoffs


class TestAgainstNaiveOracles:
    @settings(max_examples=60, deadline=None)
    @given(retrieval_cases())
    def test_evaluate(self, case):
        corpus, ids, c_labels, queries, q_ids, q_labels, cutoffs = case
        report = evaluate(queries, q_ids, q_labels, build_index(corpus, ids, c_labels),
                          cutoffs=cutoffs)
        aps, ap_at, rec_at = naive_evaluate(corpus, ids, c_labels, queries, q_ids,
                                            q_labels, sorted(cutoffs))
        assert report.per_query_ap == pytest.approx(aps, abs=1e-15)
        assert report.map == pytest.approx(np.mean(aps), abs=1e-15)
        assert report.map_at_k == pytest.approx(ap_at, abs=1e-15)
        assert report.recall_at_k == pytest.approx(rec_at, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(retrieval_cases(), st.integers(1, 45))
    def test_search(self, case, k):
        corpus, ids, c_labels, queries, *_ = case
        index = build_index(corpus, ids, c_labels)
        for q in queries:
            assert search(index, pack_code(q), k) == naive_search(corpus, ids, q, k)



def ranked_rows(monkeypatch):
    """A list that grows by 1 per _scan call: a call ranks one query."""
    rows, scan = [], retrieval._scan
    monkeypatch.setattr(retrieval, "_scan", lambda words, q, k: rows.append(1)
                        or scan(words, q, k))
    return rows


def query_keys(index, queries, q_ids, q_labels):
    """The distinct (code, label set, own row) of a query batch."""
    return {(q.tobytes(), (ql > 0).tobytes(), index.position.get(qid))
            for q, qid, ql in zip(queries, q_ids, q_labels)}


class TestRepeatedQueries:
    """Queries with an equal code, label set and own row share one ranking."""

    @settings(max_examples=40, deadline=None)
    @given(retrieval_cases())
    def test_each_query_as_if_alone(self, case):
        corpus, ids, c_labels, queries, q_ids, q_labels, cutoffs = case
        index = build_index(corpus, ids, c_labels)
        report = evaluate(queries, q_ids, q_labels, index, cutoffs=cutoffs)
        alone = [evaluate(queries[i:i + 1], q_ids[i:i + 1], q_labels[i:i + 1], index,
                          cutoffs=cutoffs) for i in range(len(q_ids))]
        assert report.per_query_ap == [r.map for r in alone]
        for got, each in [(report.map_at_k, [r.map_at_k for r in alone]),
                          (report.recall_at_k, [r.recall_at_k for r in alone])]:
            assert got == pytest.approx(np.mean(each, axis=0).tolist(), abs=1e-15)
        aps, ap_at, rec_at = naive_evaluate(corpus, ids, c_labels, queries, q_ids, q_labels,
                                            sorted(cutoffs))
        assert report.per_query_ap == pytest.approx(aps, abs=1e-15)
        assert report.map_at_k == pytest.approx(ap_at, abs=1e-15)
        assert report.recall_at_k == pytest.approx(rec_at, abs=1e-15)

    def test_shuffled_repeats(self, monkeypatch):
        rng = np.random.default_rng(5)
        n, kinds, k, categories = 300, 4, 24, 5
        corpus = random_codes(rng, 6, k)[rng.integers(6, size=n)]
        c_labels = (rng.random((n, categories)) < 0.3).astype(np.int8)
        ids = [f"c{i}" for i in range(n)]
        pool, pool_labels = corpus[:kinds], np.eye(categories, dtype=np.int8)[:kinds]
        rows = rng.permutation(np.repeat(np.arange(kinds), [1, 2, 5, 9]))
        queries, q_labels = pool[rows], pool_labels[rows]
        q_ids = [f"q{i}" for i in range(len(rows))]
        index = build_index(corpus, ids, c_labels)
        rows_ranked = ranked_rows(monkeypatch)
        report = evaluate(queries, q_ids, q_labels, index, cutoffs=(1, 10, 400))
        assert sum(rows_ranked) == kinds
        alone = [evaluate(pool[r:r + 1], ["q"], pool_labels[r:r + 1], index,
                          cutoffs=(1, 10, 400)).map for r in range(kinds)]
        assert report.per_query_ap == [alone[r] for r in rows]
        aps, ap_at, rec_at = naive_evaluate(corpus, ids, c_labels, queries, q_ids, q_labels,
                                            [1, 10, 400])
        assert report.per_query_ap == pytest.approx(aps, abs=1e-15)
        assert report.map_at_k == pytest.approx(ap_at, abs=1e-15)
        assert report.recall_at_k == pytest.approx(rec_at, abs=1e-15)

    def test_own_row_keeps_queries_apart(self, monkeypatch):
        # Query "c0" drops its own item, query "q" keeps it: same code and labels,
        # different rankings (AP 1/2 and (1 + 2/3) / 2).
        corpus = np.array([[1, 1, 1], [-1, -1, -1], [1, 1, 1]], dtype=np.int8)
        c_labels = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.int8)
        ids = ["c0", "c1", "c2"]
        queries, q_labels = corpus[[0, 0, 0]], c_labels[[0, 0, 0]]
        q_ids = ["c0", "q", "c0"]
        rows = ranked_rows(monkeypatch)
        report = evaluate(queries, q_ids, q_labels, build_index(corpus, ids, c_labels),
                          cutoffs=(1, 2))
        assert sum(rows) == 2
        aps, ap_at, rec_at = naive_evaluate(corpus, ids, c_labels, queries, q_ids, q_labels,
                                            [1, 2])
        assert report.per_query_ap == pytest.approx([0.5, 5 / 6, 0.5], abs=1e-15)
        assert report.per_query_ap == pytest.approx(aps, abs=1e-15)
        assert report.map_at_k == pytest.approx(ap_at, abs=1e-15)
        assert report.recall_at_k == pytest.approx(rec_at, abs=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(retrieval_cases())
    def test_one_scanned_row_per_distinct_query(self, case):
        corpus, ids, c_labels, queries, q_ids, q_labels, cutoffs = case
        index = build_index(corpus, ids, c_labels)
        with pytest.MonkeyPatch.context() as monkeypatch:
            rows = ranked_rows(monkeypatch)
            evaluate(queries, q_ids, q_labels, index, cutoffs=cutoffs)
        assert sum(rows) == len(query_keys(index, queries, q_ids, q_labels))


@st.composite
def grouped_cases(draw):
    """A tall corpus of a few distinct codes, each repeated many times.

    The codes are random, so their first rows are out of value order, and
    rows of different codes interleave. Queries sit at or near the codes,
    so distances tie across codes.
    """
    k = draw(st.sampled_from([16, 64, 130]))
    distinct = draw(st.integers(1, 30))
    n = draw(st.integers(distinct, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = random_codes(rng, distinct, k)
    group = np.concatenate([rng.permutation(distinct), rng.integers(distinct, size=n - distinct)])
    corpus = pool[rng.permutation(group)]
    queries = np.where(rng.random((4, k)) < 0.05, -1, 1) * pool[rng.integers(distinct, size=4)]
    return corpus, [f"c{i}" for i in range(n)], queries.astype(np.int8)


class TestDistinctCodes:
    """search() scans each distinct code once; see build_index's layout."""

    @settings(max_examples=50, deadline=None)
    @given(grouped_cases(), st.data())
    def test_search_tall_groups(self, case, data):
        corpus, ids, queries = case
        index = build_index(corpus, ids, np.ones((len(ids), 1), dtype=np.int8))
        for q in queries:
            top = data.draw(st.integers(1, len(ids) + 5))
            assert search(index, pack_code(q), top) == naive_search(corpus, ids, q, top)
        # a code of the corpus with k one past its rows: the answer runs past its bucket
        q = corpus[data.draw(st.integers(0, len(ids) - 1))]
        top = int(np.all(corpus == q, axis=1).sum()) + 1
        assert search(index, pack_code(q), top) == naive_search(corpus, ids, q, top)

    @settings(max_examples=50, deadline=None)
    @given(grouped_cases())
    def test_layout(self, case):
        corpus, ids, _ = case
        index = build_index(corpus, ids, np.ones((len(ids), 1), dtype=np.int8))
        n, (distinct, members, starts) = len(ids), index.grouping
        assert np.array_equal(np.sort(members), np.arange(n))
        assert starts[0] == 0 and starts[-1] == n and np.all(np.diff(starts) > 0)
        first = members[starts[:-1]]
        assert np.all(np.diff(first) > 0)  # codes in first-row order
        for u in range(len(starts) - 1):
            rows = members[starts[u]:starts[u + 1]]
            assert np.all(np.diff(rows) > 0)
            assert np.all(corpus[rows] == corpus[rows[0]])
            assert np.array_equal(index.words[:, rows],
                                  np.repeat(distinct[:, u:u + 1], rows.size, axis=1))
        assert len({tuple(col) for col in distinct.T}) == len(starts) - 1

    @settings(max_examples=50, deadline=None)
    @given(grouped_cases())
    def test_buckets(self, case):
        corpus, ids, _ = case
        index = build_index(corpus, ids, np.ones((len(ids), 1), dtype=np.int8))
        distinct, members, starts = index.grouping
        assert len(index.buckets) == distinct.shape[1]
        for u in range(distinct.shape[1]):
            rows = members[starts[u]:starts[u + 1]]
            key = pack_code(corpus[rows[0]]).words.ljust(distinct.itemsize * len(distinct),
                                                         b"\0")
            assert index.buckets[key] == [ids[r] for r in sorted(rows)]

    @pytest.mark.parametrize("top", [10, 25])
    def test_fewer_codes_than_k(self, top):
        rng = np.random.default_rng(9)
        corpus = random_codes(rng, 3, 16)[rng.integers(3, size=20)]
        ids = [f"c{i}" for i in range(20)]
        index = build_index(corpus, ids, np.ones((20, 1), dtype=np.int8))
        assert index.grouping[0].shape == (1, 3)
        for q in np.concatenate([corpus[:3], random_codes(rng, 5, 16)]):
            assert search(index, pack_code(q), top) == naive_search(corpus, ids, q, top)

def bucket_case(bits, own, top):
    """A corpus in which the query's code A holds `own` rows: A first, its
    complement next, then A's other rows interleaved with B, a code at
    distance 1, and `top` + 2 more rows of B. Code numbers follow first rows,
    so the code after A is the complement, not B."""
    a = np.where(np.arange(bits) % 3 == 0, 1, -1).astype(np.int8)
    b = a.copy()
    b[-1] = -b[-1]
    rows = ([a, -a] if own else [-a]) + [b, a] * (own - 1) + [b] * (top + 2)
    return np.array(rows), [f"c{i}" for i in range(len(rows))], a


class TestOwnBucket:
    """search() answers from the query's own code when that code holds k rows."""

    @pytest.mark.parametrize("bits", [10, 64, 130])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize("top", [1, 2, 5])
    def test_own_rows_around_k(self, bits, shift, top):
        corpus, ids, a = bucket_case(bits, top + shift, top)
        index = build_index(corpus, ids, np.ones((len(ids), 1), dtype=np.int8))
        assert search(index, pack_code(a), top) == naive_search(corpus, ids, a, top)

    @pytest.mark.parametrize("bits", [10, 64, 130])
    def test_k_above_the_corpus(self, bits):
        corpus, ids, a = bucket_case(bits, 3, 1)
        index = build_index(corpus, ids, np.ones((len(ids), 1), dtype=np.int8))
        for top in (len(ids), len(ids) + 1, 3 * len(ids)):
            assert search(index, pack_code(a), top) == naive_search(corpus, ids, a, top)

    @pytest.mark.parametrize("bits", [10, 64, 130])
    def test_absent_code(self, bits):
        corpus, ids, a = bucket_case(bits, 0, 4)
        index = build_index(corpus, ids, np.ones((len(ids), 1), dtype=np.int8))
        assert not (corpus == a).all(axis=1).any()
        for top in (1, 4, len(ids)):
            assert search(index, pack_code(a), top) == naive_search(corpus, ids, a, top)

    @pytest.mark.parametrize("bits", [10, 64, 130])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_no_scan_when_the_code_holds_k_rows(self, bits, extra, monkeypatch):
        top = 4
        corpus, ids, a = bucket_case(bits, top + extra, top)
        index = build_index(corpus, ids, np.ones((len(ids), 1), dtype=np.int8))
        expected = naive_search(corpus, ids, a, top)

        def no_scan(*args, **kwargs):
            raise AssertionError("distance scan")
        monkeypatch.setattr(retrieval.np, "bitwise_count", no_scan)
        assert search(index, pack_code(a), top) == expected

    @pytest.mark.parametrize("bits", [10, 64, 130])
    @pytest.mark.parametrize("own", [0, 3, 4, 5])
    def test_one_scan_of_the_distinct_codes(self, bits, own, monkeypatch):
        # a code of own < top rows misses its bucket and scans; one of top rows or more does not
        top = 4
        corpus, ids, a = bucket_case(bits, own, top)
        index = build_index(corpus, ids, np.ones((len(ids), 1), dtype=np.int8))
        distinct = index.grouping[0]
        scanned, scan = [], retrieval._scan
        monkeypatch.setattr(retrieval, "_scan", lambda words, q, k: scanned.append(words)
                            or scan(words, q, k))
        assert search(index, pack_code(a), top) == naive_search(corpus, ids, a, top)
        assert len(scanned) == (own < top)
        assert all(words is distinct for words in scanned)

    @pytest.mark.parametrize("extra", [0, 3])
    def test_answer_is_a_fresh_list(self, extra):
        top = 4
        corpus, ids, a = bucket_case(64, top + extra, top)
        index = build_index(corpus, ids, np.ones((len(ids), 1), dtype=np.int8))
        first = search(index, pack_code(a), top)
        expected = list(first)
        first.append("x")
        first[0] = "y"
        assert search(index, pack_code(a), top) == expected == naive_search(corpus, ids, a, top)


def tie_heavy_case(k, categories, seed):
    """A corpus and queries drawn from a few codes and their complements, so
    that distances tie often and reach k; half the queries share a corpus id."""
    rng = np.random.default_rng(seed)
    pool = random_codes(rng, 3, k)
    pool = np.concatenate([pool, -pool])
    n, nq = 40, 21
    corpus = pool[rng.integers(len(pool), size=n)]
    flips = np.where(rng.random((nq, k)) < 0.05, -1, 1)
    flips[::3] = 1  # exact pool rows: complements sit at distance k
    queries = (pool[rng.integers(len(pool), size=nq)] * flips).astype(np.int8)
    ids = [f"c{i}" for i in range(n)]
    q_ids = [f"c{rng.integers(n)}" if i % 2 else f"q{i}" for i in range(nq)]
    c_labels = (rng.random((n, categories)) < 0.3).astype(np.int8)
    q_labels = (rng.random((nq, categories)) < 0.3).astype(np.int8)
    return corpus, ids, c_labels, queries, q_ids, q_labels


class TestDistanceTypeBoundary:
    """Around K = 255 a distance, or the excluded item's k + 1, stops fitting
    in one byte."""

    @pytest.mark.parametrize("categories", [5, 12])  # 1- and 2-byte labels
    @pytest.mark.parametrize("k", [254, 255, 256])
    def test_evaluate(self, k, categories):
        corpus, ids, c_labels, queries, q_ids, q_labels = tie_heavy_case(k, categories, k)
        cutoffs = [1, 7, len(ids), len(ids) + 5]
        report = evaluate(queries, q_ids, q_labels, build_index(corpus, ids, c_labels),
                          cutoffs=cutoffs)
        aps, ap_at, rec_at = naive_evaluate(corpus, ids, c_labels, queries, q_ids,
                                            q_labels, cutoffs)
        assert report.per_query_ap == pytest.approx(aps, abs=1e-15)
        assert report.map_at_k == pytest.approx(ap_at, abs=1e-15)
        assert report.recall_at_k == pytest.approx(rec_at, abs=1e-15)

    @pytest.mark.parametrize("k", [254, 255, 256])
    def test_search(self, k):
        corpus, ids, c_labels, queries, *_ = tie_heavy_case(k, 12, k)
        index = build_index(corpus, ids, c_labels)
        for q in queries:
            for top in (1, 10, len(ids)):
                assert search(index, pack_code(q), top) == naive_search(corpus, ids, q, top)


def pinned_report(k, seed):
    """evaluate() on a seeded 2,000-item corpus with 10 categories, two-label
    items, and 40 queries of which every other one is a corpus item."""
    rng = np.random.default_rng(seed)
    n, nq, categories = 2000, 40, 10
    corpus = random_codes(rng, n, k)
    c_labels = np.eye(categories, dtype=np.int8)[rng.integers(categories, size=n)]
    c_labels |= (rng.random((n, categories)) < 0.1).astype(np.int8)
    rows = rng.integers(n, size=nq)
    queries = np.where(rng.random((nq, k)) < 0.1, -corpus[rows], corpus[rows])
    q_ids = [f"c{r}" if i % 2 else f"q{i}" for i, r in enumerate(rows)]
    index = build_index(corpus, [f"c{i}" for i in range(n)], c_labels)
    return evaluate(queries, q_ids, c_labels[rows], index, cutoffs=(1, 10, 100, 2500))


def _sha256(values):
    return hashlib.sha256(np.array(values, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("k", [64, 130])
def test_report_bits_pinned(k):
    # Any change to how evaluate() sums or divides shows here, not only
    # changes beyond the oracle tests' 1e-15.
    report = pinned_report(k, seed=k)
    assert _sha256(report.per_query_ap) == PINNED_DIGESTS[k][0]
    assert _sha256(report.map_at_k + report.recall_at_k) == PINNED_DIGESTS[k][1]


PINNED_DIGESTS = {
    64: ("b47c1f47aa54a3d83ad2577cbe767c66e1397b1382bfb755c52acfaf6276df41",
         "6b8547e60b104906ca3aba037e426903857f28678eb5922385d1a7e98faac9de"),
    130: ("d1b86293a63f5948cf1f88a786fee0edf94f8102a61dd860e56b11c0cca3acb8",
          "5e1865c42418e477eb4e3767dc7d9c42ab0cebfbe05dd9ffec0c477c97f1d1ef"),
}
