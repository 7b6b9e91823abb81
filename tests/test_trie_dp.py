"""Unit tests for the KB trie + segmentDP parity quirks (SURVEY.md §5),
and for the batch kernel against ``segment_dp`` as its oracle."""

from pathlib import Path

import pytest

from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
from autoner_ray.functions.ck import get_boundary, get_types, to_ck
from autoner_ray.state.trie import (
    FILTERED_TYPE,
    KBTrie,
    build_trie,
    segment_dp,
)


def mk_trie(core, full=(), stop=()):
    return build_trie(list(core), list(full), list(stop))


def test_insert_case_variants():
    t = mk_trie(["Disease\theart attack"])
    assert t.get_type_from_kb(["heart", "attack"]) == "Disease"
    assert t.get_type_from_kb(["HEART", "ATTACK"]) == "Disease"
    assert t.get_type_from_kb(["heart", "ATTACK"]) == ""


def test_no_lowercases_for_per_org_loc():
    t = mk_trie(["PER\tJohn Smith"])
    assert t.get_type_from_kb(["John", "Smith"]) == "PER"
    assert t.get_type_from_kb(["JOHN", "SMITH"]) == "PER"
    # all-lower variant NOT inserted for PER (src/annotation.h:195)
    assert t.get_type_from_kb(["john", "smith"]) == ""


def test_multi_type_accumulation():
    t = mk_trie(["Chemical\tlead", "Disease\tlead"])
    # std::set byte order -> "Chemical,Disease" (src/annotation.h:162-178)
    assert t.get_type_from_kb(["lead"]) == "Chemical,Disease"


def test_filtered_does_not_override_entity():
    t = mk_trie(["Disease\tfever"], full=["fever"])
    u = t.get_child(0, "fever")
    assert t.is_entity(u) and not t.is_filtered(u)


def test_full_dict_uses_last_core_row_flag():
    # bug-compat: last core row PER -> full dict gets NO lowercase variant
    t = mk_trie(["Disease\tfever", "PER\tJohn"], full=["Big Phrase"])
    assert t.in_kb(["Big", "Phrase"])
    assert t.in_kb(["BIG", "PHRASE"])
    assert not t.in_kb(["big", "phrase"])  # noLowercasesForThisKB leaked
    # and with a non-PER last row the lowercase variant IS inserted
    t2 = mk_trie(["PER\tJohn", "Disease\tfever"], full=["Big Phrase"])
    assert t2.in_kb(["big", "phrase"])


def test_stopword_removal_three_variants():
    t = mk_trie(["Disease\tthe"], full=["The"], stop=["the"])
    assert not t.in_kb(["the"])
    assert not t.in_kb(["THE"])
    assert not t.in_kb(["The"])
    assert "the" in t.stopword_set


def test_stopword_set_empty_during_kb_load():
    # bin/generate order: loadKB BEFORE cleanStopwords (annotation.h:235-243)
    # so the stopword-escalation branch at :197-204 never fires.
    t = mk_trie(["Disease\tof fever"], stop=["of"])
    # lowercase variant present because noLowercases stayed False
    assert t.in_kb(["of", "fever"])


def test_segment_dp_prefers_longer_match():
    t = mk_trie(["Disease\theart attack", "Organ\theart"])
    segs = segment_dp(t, ["heart", "attack"])
    assert segs == [(0, 2, "Disease")]


def test_segment_dp_skip_and_match():
    t = mk_trie(["Disease\tfever"])
    segs = segment_dp(t, ["a", "fever", "b"])
    assert segs == [(0, 1, ""), (1, 2, "Disease"), (2, 3, "")]


def test_segment_dp_never_crosses_sentinel():
    t = mk_trie(["Disease\theart attack"])
    segs = segment_dp(t, ["heart", "\n", "attack"])
    assert all(ty == "" for _, _, ty in segs)


def test_segment_dp_filtered_weight():
    t = mk_trie(["Disease\tfever"], full=["big phrase"])
    segs = segment_dp(t, ["big", "phrase"])
    assert segs == [(0, 2, FILTERED_TYPE)]


def test_segment_dp_overlap_resolution():
    # "x y" core (len²=4) vs "y z" core (4): DP picks one tiling;
    # earliest-computed candidate wins ties via strict inequality.
    t = mk_trie(["A\tx y", "B\ty z"])
    segs = segment_dp(t, ["x", "y", "z"])
    # trace of the C++ loop: at i=1 the B match sets f[3]=4 (tb=(1,B));
    # at i=2 the skip transition f[2](=4) > f[3](=4) is strict and fails,
    # so traceback keeps B: [skip x][y z:B]
    assert segs == [(0, 1, ""), (1, 3, "B")]


def test_boundary_filtered_inclusive_r():
    # FILTERED span [1,3) marks boundary 0 at 1,2 AND 3 (annotation.h:278-280)
    raw = ["a", "big", "phrase", "tail"]
    segs = [(0, 1, ""), (1, 3, FILTERED_TYPE), (3, 4, "")]
    assert get_boundary(raw, segs) == [1, 0, 0, 0]
    assert get_types(raw, segs) == ["None"] * 4


def test_boundary_entity():
    raw = ["heart", "attack", "x"]
    segs = [(0, 2, "Disease"), (2, 3, "")]
    assert get_boundary(raw, segs) == [1, -1, 1]
    assert get_types(raw, segs) == ["Disease", "Disease", "None"]


def test_to_ck_format():
    raw = ["fever", "\n", "big", "phrase"]
    segs = [(0, 1, "Disease"), (1, 2, ""), (2, 4, FILTERED_TYPE)]
    ck = to_ck(raw, segs)
    assert ck == (
        "<s> O None S\n"
        "fever I Disease S\n"
        "<eof> I None S\n"
        "\n\n"
        "<s> O None S\n"
        "big O None D\n"
        "phrase O None D\n"
    )


def test_per_sentence_equals_whole_corpus():
    """Sentence-parallel decomposition == the reference's whole-corpus DP."""
    t = mk_trie(["Disease\theart attack", "Chemical\tlithium"], full=["big phrase"])
    corpus = [
        "heart", "attack", "x", "\n",
        "big", "phrase", "\n",
        "lithium", "\n",
    ]
    whole = segment_dp(t, corpus)

    # split into sentences incl. their trailing sentinel positions
    parts = []
    start = 0
    for idx, tok in enumerate(corpus):
        if tok == "\n":
            if idx > start:
                segs = segment_dp(t, corpus[start:idx])
                parts.extend((l + start, r + start, ty) for l, r, ty in segs)
            parts.append((idx, idx + 1, ""))
            start = idx + 1
    if start < len(corpus):
        segs = segment_dp(t, corpus[start:])
        parts.extend((l + start, r + start, ty) for l, r, ty in segs)
    assert parts == whole


# the built-in dictionaries plus a one-token full-dict phrase (ties with
# the skip at weight 0) and a three-token one overlapping a two-token
# entity (its weight·len² decides); extra core rows go first so the
# last row stays PER
CORE = ["Structure\tdata stream"] + list(CORE_DICT)
FULL = list(FULL_DICT) + ["xyz", "big data stream"]
# tokens: case variants, the sentinel, separators, "-DOCSTART-", nested
# core/full surfaces ("window agg" vs "agg", "small batch" vs "batch")
# and overlapping surfaces ("big data" / "data stream", "table scan" /
# "fast scan")
VOCAB = [
    "hash", "join", "HASH", "JOIN", "Hash", "order", "ORDER", "batch",
    "small", "big", "data", "stream", "window", "agg", "table", "fast",
    "scan", "the", "a", "xyz", "\n", "spark", "customer", "CUSTOMER",
    "Customer", "-", ".", "(", "-DOCSTART-",
]
# whole dictionary surfaces, drawn as one item so overlaps are common
PHRASES = [
    "big data stream", "window agg", "small batch", "hash join",
    "table scan", "fast scan", "HASH JOIN", "data stream", "big data",
]


def _sentences(max_size):
    from hypothesis import strategies as st

    items = st.sampled_from([(t,) for t in VOCAB] +
                            [tuple(p.split()) for p in PHRASES])
    return st.lists(items, max_size=max_size).map(
        lambda parts: [t for part in parts for t in part]
    )


WEIGHTS = [1.0, 0.5, 0.0]
OUTPUTS = (
    "sentences", "mentions", "annotations", "pairs", "pairs_ev",
    "typed_pairs",
)


def _test_trie():
    return build_trie(CORE, FULL, list(STOPWORDS))


def _batch_segments(trie, sentences, weight):
    """``segment_batch`` regrouped into per-sentence segment lists."""
    import pyarrow as pa

    from autoner_ray.state.trie import compile_trie, segment_batch

    ct = compile_trie(trie)
    type_str = ct.type_str.to_pylist()
    sent, left, right, node = segment_batch(
        ct, pa.array(sentences, pa.list_(pa.string())), weight
    )
    out = [[] for _ in sentences]
    for s, l, r, u in zip(sent, left, right, node):
        out[s].append((int(l), int(r), type_str[u] if u >= 0 else ""))
    return out


def test_segment_dp_tiling_property():
    """Property: for ANY token sequence, segments tile [0, n) exactly —
    sorted, contiguous, non-overlapping — and sentinel tokens are never
    inside a typed segment; the batch kernel gives the same segments as
    ``segment_dp`` for every sentence of the batch."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    trie = _test_trie()

    @given(
        st.lists(_sentences(20), max_size=8),
        st.sampled_from(WEIGHTS),
    )
    @settings(max_examples=200, deadline=None)
    def check(sentences, weight):
        want = [segment_dp(trie, tokens, weight) for tokens in sentences]
        for tokens, segs in zip(sentences, want):
            pos = 0
            for l, r, ty in segs:
                assert l == pos and r > l
                pos = r
                if ty:
                    assert "\n" not in tokens[l:r]
            assert pos == len(tokens)
        assert _batch_segments(trie, sentences, weight) == want

    check()


def _reference_output(m, batch):
    """What ``DictMatcher(output=...)`` must return, built from the
    per-sentence reference methods; edge outputs sorted by key."""
    from collections import Counter
    from itertools import combinations

    rows = batch.to_pylist()
    if m.output == "sentences":
        return [
            dict(
                url=r["url"], doc_id=r["doc_id"], sent_id=r["sent_id"],
                entities=sorted({x[4] for x in m.mentions_of(r["tokens"])}),
                mention_cnt=len(m.mentions_of(r["tokens"])),
            )
            for r in rows
        ]
    if m.output == "mentions":
        return [
            dict(
                url=r["url"], doc_id=r["doc_id"], sent_id=r["sent_id"],
                l=l, r=rr, surface=sf, types=ty, canon=c,
            )
            for r in rows
            for l, rr, sf, ty, c in m.mentions_of(r["tokens"])
        ]
    if m.output == "annotations":
        out = []
        for r in rows:
            segs = m.segments(r["tokens"])
            out.append(
                dict(
                    url=r["url"], doc_id=r["doc_id"], sent_id=r["sent_id"],
                    boundary=get_boundary(r["tokens"], segs),
                    types=get_types(r["tokens"], segs),
                    ck=to_ck(r["tokens"], segs),
                )
            )
        return out
    if m.output == "typed_pairs":
        counter = Counter()
        for r in rows:
            counter.update(m.typed_pairs_of(r["tokens"]))
        return [
            dict(subj=a, pred=p, obj=b, w=w)
            for (a, p, b), w in sorted(counter.items())
        ]
    counter, ev = Counter(), {}
    for r in rows:
        pointer = f"{r['url']}#{r['sent_id']}"
        ents = sorted({x[4] for x in m.mentions_of(r["tokens"])})
        for pair in combinations(ents, 2):
            counter[pair] += 1
            ev[pair] = min(ev.get(pair, pointer), pointer)
    out = []
    for (a, b), w in sorted(counter.items()):
        d = dict(subj=a, pred="cooccurs_with", obj=b, w=w)
        if m.output == "pairs_ev":
            d["ev"] = ev[(a, b)]
        out.append(d)
    return out


def test_batch_outputs_match_per_sentence_reference():
    """Property: every ``DictMatcher`` output equals the per-sentence
    reference loop over ``segment_dp`` / ``mentions_of`` /
    ``typed_pairs_of`` (edge outputs compared as sets of rows)."""
    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from autoner_ray.stages.dict_match import DictMatcher

    matchers = {
        (o, w): DictMatcher(CORE, FULL, STOPWORDS, w, output=o)
        for o in OUTPUTS
        for w in WEIGHTS
    }

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["u0", "u1", "u10"]),
                st.integers(0, 12),
                _sentences(12),
            ),
            max_size=10,
        ),
        st.sampled_from(WEIGHTS),
    )
    @settings(max_examples=300, deadline=None)
    def check(rows, weight):
        batch = pa.table(
            {
                "url": pa.array([r[0] for r in rows], pa.string()),
                "doc_id": pa.array(range(len(rows)), pa.int64()),
                "sent_id": pa.array([r[1] for r in rows], pa.int32()),
                "tokens": pa.array(
                    [r[2] for r in rows], pa.list_(pa.string())
                ),
            }
        )
        for output in OUTPUTS:
            m = matchers[(output, weight)]
            got = m(batch).to_pylist()
            if output in ("pairs", "pairs_ev", "typed_pairs"):
                got.sort(key=lambda d: (d["subj"], d["pred"], d["obj"]))
            assert got == _reference_output(m, batch), output

    check()


@pytest.mark.parametrize("scale", ["sf0.001", "sf0.1"])
def test_fixture_corpora_batch_kernels_match_reference(sf_dir, scale):
    """Every sentence of the fixture corpora gets the same tokens from
    ``tokenize_pages_batch`` as from ``split_sentences`` +
    ``sentence_token_stream``, and the same segments from
    ``segment_batch`` as from ``segment_dp``, sentence for sentence."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from autoner_ray.pipelines.kg import DEFAULT_BATCH_SIZE
    from autoner_ray.sources.pages import URL_PREFIX
    from autoner_ray.stages.tokenize import (
        sentence_token_stream,
        split_sentences,
        tokenize_pages_batch,
    )

    docs = pq.read_table(
        Path(sf_dir).parent / scale / "documents.parquet",
        columns=["doc_id", "text"],
    )
    trie = build_trie(list(CORE_DICT), list(FULL_DICT), list(STOPWORDS))
    n_sent = 0
    for i in range(0, docs.num_rows, DEFAULT_BATCH_SIZE):
        batch = docs.slice(i, DEFAULT_BATCH_SIZE)
        pages = pa.table(
            {
                "url": pc.binary_join_element_wise(
                    URL_PREFIX, pc.cast(batch["doc_id"], pa.string()), ""
                ),
                "text": batch["text"],
            }
        )
        got = tokenize_pages_batch(pages)
        want = [
            (doc_id, sid, toks)
            for doc_id, text in zip(
                batch["doc_id"].to_pylist(), batch["text"].to_pylist()
            )
            for sid, sent in enumerate(split_sentences(text or ""))
            if (toks := sentence_token_stream(sent))
        ]
        sentences = got["tokens"].to_pylist()
        assert list(
            zip(got["doc_id"].to_pylist(), got["sent_id"].to_pylist(),
                sentences)
        ) == want
        assert _batch_segments(trie, sentences, 1.0) == [
            segment_dp(trie, toks) for toks in sentences
        ]
        n_sent += len(sentences)
    assert n_sent >= docs.num_rows
