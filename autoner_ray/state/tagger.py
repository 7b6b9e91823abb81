"""Tie-or-Break neural tagger: numpy char-level bi-GRU (T3/T4/T5/T6).

Re-expresses the reference model family (`model_partial_ner/ner.py:36-174`,
`basic.py:12-151`) with the ``--rnn_unit gru`` option
(`train_partial_ner.py:52`, unit map `basic.py:33`) in pure numpy —
forward AND backward passes — because this container ships no torch.
Architecture contract kept:

- char-level sequence: ``<bos> w0chars <sep> w1chars <sep> ... <sep(eos)>``,
  word embedding repeated at every char of the word and CONCATENATED with
  the char embedding (`encode_folder.py:178-202` repeats word ids per
  char; the reference concatenates the embedded streams in
  `ner.py:91-101`);
- bi-GRU over the char stream;
- CHUNKING head: a linear score at every boundary slot (the separator
  positions, `encode_folder.py:190` chunk_mask); ``score < threshold``
  means Break (`test_partial_ner.py:91`);
- TYPING head: span representation = backward state at the LEFT break
  concat forward state at the RIGHT break -> one hidden layer -> type
  logits (`ner.py:176-238` to_typed_span);
- losses: BCE-with-logits on Break scores (safe slots only,
  `encode_folder.py:74-88` S/D mask) + soft cross-entropy against the
  k-hot type mask (`model_partial_ner/object.py:16-67` softCE);
- SGD + momentum, gradient clip 5 (`train_partial_ner.py:89,140`);
- token-budget batching: sentences sorted by length desc, batch size =
  ``max(budget // seq_len, 1)`` (`dataset.py:144-188`).

Two encoder paths, one per purpose:

- training: :func:`forward` (GRU) and :func:`forward_v2` (stacked
  LSTM) run each direction as its own time loop through
  :func:`_gru_forward` / :func:`_lstm_forward`, keeping the per-step
  cache that :func:`_gru_backward` / :func:`backward_v2` consume. They
  are also the test oracle for the inference kernel;
- inference: :func:`infer_states` is the only encoder forward that
  ``Tagger.predict_batch``, ``Tagger.forward_states`` and the stages'
  ``bucketed_predict`` run. Both directions advance in ONE time loop
  (one ``[forward | backward]`` state, block gate matrices, 2-D GEMMs
  over both directions at once), sigmoid is ``0.5·(1+tanh(x/2))``, and
  no cache or dropout is kept. :func:`encode_batch` is the batch twin of
  :func:`encode_sentence` (the per-sentence oracle, also used by
  training).

Boundary-slot convention (engine-normalized form of the .ck contract):
a sentence of n words has n+1 slots — slot 0 before word 0 (the
``<bos>`` char), slot i at the separator before word i, slot n at the
trailing separator. Segments [l, r) mark slots l and r Break, interior
slots Tie; FILTERED spans mark slots l..r UNKNOWN (the inclusive-r
quirk, `annotation.h:278-280`).
"""

from __future__ import annotations

import io
from collections import Counter

import numpy as np

PAD, BOS, SEP, UNK = 0, 1, 2, 3  # char-stream specials
CHAR_SPECIALS = 4
WORD_PAD, WORD_UNK = 0, 1
WORD_SPECIALS = 2
NONE_TYPE = "None"


# ---------------------------------------------------------------------------
# Vocab builds (A1 corpus vocab, A2 label map, A3 char freq threshold)
# ---------------------------------------------------------------------------

def build_vocabs(
    sentences: list[list[str]],
    type_lists: list[list[str]],
    char_min_count: int = 5,
):
    """Return (c_map, w_map, tl_map).

    - chars with count > ``char_min_count`` enter c_map
      (`encode_folder.py:165-174`);
    - every corpus word (raw) enters w_map (`encode_folder.py:12-21`);
    - tl_map: ``None`` first, then first-occurrence order of span types
      (`encode_folder.py:33-52`) — normalized to sorted order for
      shard-independence (SURVEY §2.5 A2 note).
    """
    c_count: Counter[str] = Counter()
    w_set: set[str] = set()
    t_set: set[str] = set()
    for toks in sentences:
        for w in toks:
            w_set.add(w)
            c_count.update(w)
    for types in type_lists:
        for t in types:
            if t and t != NONE_TYPE:
                t_set.add(t)
    c_map = {
        ch: i + CHAR_SPECIALS
        for i, ch in enumerate(
            sorted(ch for ch, n in c_count.items() if n > char_min_count)
        )
    }
    w_map = {w: i + WORD_SPECIALS for i, w in enumerate(sorted(w_set))}
    tl_map = {NONE_TYPE: 0}
    for t in sorted(t_set):
        tl_map[t] = len(tl_map)
    return c_map, w_map, tl_map


# ---------------------------------------------------------------------------
# Encoder (M10/M11): tokens -> char/word id streams + boundary slots
# ---------------------------------------------------------------------------

def encode_sentence(tokens: list[str], c_map: dict, w_map: dict):
    """Return (char_ids, word_ids, slot_pos) — slot_pos[i] = char index of
    boundary slot i (n+1 slots). Word lookup falls back raw -> lower ->
    unk (`encode_folder.py:184-185`)."""
    char_ids = [BOS]
    word_ids = [WORD_PAD]
    slot_pos = [0]
    for w in tokens:
        wid = w_map.get(w) or w_map.get(w.lower(), WORD_UNK)
        for ch in w:
            char_ids.append(c_map.get(ch, UNK))
            word_ids.append(wid)
        char_ids.append(SEP)
        word_ids.append(wid)
        slot_pos.append(len(char_ids) - 1)
    return (
        np.asarray(char_ids, np.int32),
        np.asarray(word_ids, np.int32),
        np.asarray(slot_pos, np.int32),
    )


def encode_batch(sentences: list[list[str]], c_map: dict, w_map: dict):
    """Batch twin of :func:`encode_sentence`: the same
    ``(char_ids, word_ids, slot_pos)`` per sentence, array for array,
    built from whole-batch arrays. Characters are UTF-32 code points
    looked up in the sorted ``c_map`` keys; word ids are looked up once
    per distinct token (raw -> lower -> unk)."""
    flat = [w for toks in sentences for w in toks]
    n_tok = np.fromiter(map(len, sentences), np.int64, len(sentences))
    tl = np.fromiter(map(len, flat), np.int64, len(flat))
    ids = {
        w: w_map.get(w) or w_map.get(w.lower(), WORD_UNK)
        for w in dict.fromkeys(flat)
    }
    wid = np.fromiter(map(ids.__getitem__, flat), np.int32, len(flat))
    cp = np.frombuffer(
        "".join(flat).encode("utf-32-le", "surrogatepass"), np.uint32
    )
    chars = sorted((ord(k), v) for k, v in c_map.items() if len(k) == 1)
    ch = np.full(len(cp), UNK, np.int32)
    if chars:
        keys = np.asarray([k for k, _ in chars], np.uint32)
        at = np.minimum(np.searchsorted(keys, cp), len(keys) - 1)
        hit = keys[at] == cp
        ch[hit] = np.asarray([v for _, v in chars], np.int32)[at[hit]]
    # each token spans its chars + its separator; each sentence adds a
    # leading <bos>. Token k starts after the spans before it and the
    # <bos> of its own and every earlier sentence.
    span = tl + 1
    span_off = np.concatenate([[0], np.cumsum(span)])
    tok_first = np.concatenate([[0], np.cumsum(n_tok)])
    sent_of = np.repeat(np.arange(len(sentences)), n_tok)
    tok_start = span_off[:-1] + sent_of + 1
    sent_start = span_off[tok_first[:-1]] + np.arange(len(sentences))
    total = len(sentences) + int(span_off[-1])
    char_ids = np.full(total, SEP, np.int32)
    word_ids = np.full(total, WORD_PAD, np.int32)
    char_ids[sent_start] = BOS
    char_ids[np.repeat(tok_start - (np.cumsum(tl) - tl), tl)
             + np.arange(len(cp))] = ch
    word_ids[np.repeat(tok_start, span) + np.arange(int(span_off[-1]))
             - np.repeat(span_off[:-1], span)] = np.repeat(wid, span)
    # slots: the <bos> then every token's separator, sentence-relative
    slot_first = tok_first[:-1] + np.arange(len(sentences))
    slots = np.empty(len(sentences) + len(flat), np.int64)
    slots[slot_first] = sent_start
    slots[sent_of + 1 + np.arange(len(flat))] = tok_start + tl
    slots = (slots - np.repeat(sent_start, n_tok + 1)).astype(np.int32)
    ends = np.append(sent_start[1:], total)
    return [
        (char_ids[a:b], word_ids[a:b], slots[s : s + n + 1])
        for a, b, s, n in zip(
            sent_start.tolist(), ends.tolist(), slot_first.tolist(),
            n_tok.tolist(),
        )
    ]


def segments_to_slots(n_words: int, segments, filtered_type="__FILTERED__"):
    """Segments -> (break_label[n+1] in {1,0}, known_mask[n+1]).

    Typed/plain segments stamp Breaks at both edges and Ties inside;
    FILTERED spans void supervision on slots l..r INCLUSIVE
    (`annotation.h:278-280`)."""
    brk = np.zeros(n_words + 1, np.float32)
    known = np.ones(n_words + 1, bool)
    brk[0] = brk[n_words] = 1.0
    for l, r, ty in segments:
        if ty == filtered_type:
            known[l : min(r, n_words) + 1] = False
            continue
        brk[l] = 1.0
        brk[r] = 1.0
        # interior slots are Tie (0) — already zero unless another
        # segment marked them; explicit for clarity:
        if r - l > 1:
            brk[l + 1 : r] = 0.0
    return brk, known


def spans_from_segments(segments, tl_map, filtered_type="__FILTERED__"):
    """Typed spans [(l, r, khot)] for typing supervision (M12).

    Plain (untyped, non-FILTERED) segments supervise the ``None`` class —
    the reference stamps ``"None"`` on every non-entity token
    (`annotation.h:298-317`) and the typing loss sees those chunks too;
    without them the None logit is never trained and every decoded span
    argmaxes to an entity type. FILTERED spans stay unsupervised."""
    out = []
    for l, r, ty in segments:
        if ty == filtered_type:
            continue
        khot = np.zeros(len(tl_map), np.float32)
        if not ty:
            khot[tl_map[NONE_TYPE]] = 1.0
            out.append((l, r, khot))
            continue
        found = False
        for t in ty.split(","):
            if t in tl_map:
                khot[tl_map[t]] = 1.0
                found = True
        if found:
            out.append((l, r, khot))
    return out


# ---------------------------------------------------------------------------
# Mixed gold+distant training set (reference DS_GOLD_MIXED path:
# `model_partial_ner/dataset.py:298-404`,
# `preprocess_partial_ner/encode_mixed_dataset.py:36-80`)
# ---------------------------------------------------------------------------

def segments_from_gold_labels(labels: list[tuple[int, str]]):
    """Per-token gold ``(is_break_before, type)`` rows -> segment list
    [(l, r, type_or_empty)]. A gold sentence is FULLY supervised: every
    maximal chunk becomes a segment; ``None`` chunks become plain ("")
    segments so the typing head sees the None class
    (`encode_mixed_dataset.py:63-70` gold rows have no S/D column — all
    safe)."""
    n = len(labels)
    segs = []
    start = 0
    for i in range(1, n + 1):
        if i == n or labels[i][0] == 1:
            ty = labels[start][1]
            segs.append((start, i, "" if ty == NONE_TYPE else ty))
            start = i
    return segs


def carve_pseudo_segments(segments, pred_spans, n_words: int,
                          min_score: float = 0.0,
                          filtered_type="__FILTERED__"):
    """Self-training merge: stamp model-predicted spans into the UNKNOWN
    (FILTERED) regions of a distant-supervision segmentation.

    A predicted span (l, r, ty, score) is accepted iff score >=
    ``min_score`` and every slot l..r lies inside a FILTERED region —
    dictionary supervision is never overridden, only the unsupervised
    gaps gain pseudo-labels. Each FILTERED span that contains accepted
    spans is carved into the remainders around them so
    :func:`segments_to_slots` re-enables supervision exactly on the
    accepted slots. Returns (merged_segments, n_accepted).
    """
    unknown = np.zeros(n_words + 1, bool)
    filtered = []
    keep = []
    for seg in segments:
        l, r, ty = seg
        if ty == filtered_type:
            unknown[l : min(r, n_words) + 1] = True
            filtered.append((l, min(r, n_words)))
        else:
            keep.append(seg)
    accepted = [
        (l, r, ty)
        for l, r, ty, score in pred_spans
        if score >= min_score and bool(unknown[l : r + 1].all())
    ]
    if not accepted:
        return list(segments), 0
    accepted.sort()
    merged = keep + [(l, r, ty) for l, r, ty in accepted]
    for fl, fr in filtered:
        cur = fl
        for l, r, _ in accepted:
            if l > fr or r < fl:
                continue
            if l - 1 >= cur:
                merged.append((cur, l - 1, filtered_type))
            cur = r + 1
        if cur <= fr:
            merged.append((cur, fr, filtered_type))
    return merged, len(accepted)


def mixed_records(distant_records, gold_records, sample_ratio: float = 1.0,
                  seed: int = 19910724):
    """DS_GOLD_MIXED sampling rule (`dataset.py:383`): gold records are
    ALWAYS kept; distant records are Bernoulli-sampled at
    ``sample_ratio``. Returns one flat record list for the token-budget
    batcher."""
    rng = np.random.default_rng(seed)
    kept = [
        r for r in distant_records if rng.uniform() <= sample_ratio
    ]
    return kept + list(gold_records)


# ---------------------------------------------------------------------------
# Token-budget batcher (T6)
# ---------------------------------------------------------------------------

def word_dropout_records(records, p: float, rng):
    """Word-level <unk> dropout: replace each distinct word id of a
    record with WORD_UNK w.p. ``p`` (all its char positions at once).
    The offline substitute for pretrained embeddings — with word
    identity randomly unavailable, the break/type heads must lean on
    context + character patterns, which is what generalizes to surfaces
    the dictionary never saw. No-op at p<=0."""
    if p <= 0:
        return records
    out = []
    for ci, wi, slots, brk, known, spans in records:
        wi2 = wi.copy()
        for uid in np.unique(wi2):
            if uid >= WORD_SPECIALS and rng.random() < p:
                wi2[wi2 == uid] = WORD_UNK
        out.append((ci, wi2, slots, brk, known, spans))
    return out


def token_budget_batches(records, budget: int = 3000):
    """records sorted by char-seq length desc; batch rows =
    max(budget // seq_len, 1) (`dataset.py:144-188`)."""
    order = sorted(range(len(records)), key=lambda i: -len(records[i][0]))
    i = 0
    while i < len(order):
        seq_len = len(records[order[i]][0])
        rows = max(budget // max(seq_len, 1), 1)
        yield [records[j] for j in order[i : i + rows]]
        i += rows


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

def init_params(
    n_chars: int,
    n_words: int,
    n_types: int,
    char_dim: int = 16,
    word_dim: int = 16,
    hidden: int = 32,
    seed: int = 19910724,
) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)

    def mat(*shape):
        bound = np.sqrt(6.0 / sum(shape))
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)

    d = char_dim + word_dim
    p = {
        "Ec": mat(n_chars, char_dim),
        "Ew": mat(n_words, word_dim),
        # GRU (shared shapes fwd/bwd): gates z, r, candidate h
        "Wf": mat(d, 3 * hidden), "Uf": mat(hidden, 3 * hidden),
        "bf": np.zeros(3 * hidden, np.float32),
        "Wb": mat(d, 3 * hidden), "Ub": mat(hidden, 3 * hidden),
        "bb": np.zeros(3 * hidden, np.float32),
        # chunk head over [h_fwd, h_bwd]
        "Wc": mat(2 * hidden, 1), "bc": np.zeros(1, np.float32),
        # typing head over [h_bwd(left), h_fwd(right)]
        "Wt1": mat(2 * hidden, hidden), "bt1": np.zeros(hidden, np.float32),
        "Wt2": mat(hidden, n_types), "bt2": np.zeros(n_types, np.float32),
    }
    p["_dims"] = np.asarray(
        [n_chars, n_words, n_types, char_dim, word_dim, hidden], np.int64
    )
    return p


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30, 30)))


# ---------------------------------------------------------------------------
# v2 model: the reference DEFAULT architecture in numpy —
# stacked bi-LSTM (`basic.py:33` rnnunit_map['lstm'], `--layer_num 2`)
# + highway heads (`highway.py:59-67`) + label-dim projection
# (`ner.py:57-62` add_proj, `--label_dim 50`) + dropout. Forward AND
# backward are hand-written (no torch in this container).
# ---------------------------------------------------------------------------

def init_params_v2(
    n_chars: int,
    n_words: int,
    n_types: int,
    char_dim: int = 30,
    word_dim: int = 50,
    hidden: int = 100,
    layers: int = 2,
    label_dim: int = 50,
    seed: int = 19910724,
) -> dict[str, np.ndarray]:
    """``hidden`` is the BI-directional output dim (reference hid_dim);
    each direction runs hidden//2 units (`basic.py:35` hid_dim//2)."""
    assert hidden % 2 == 0
    rng = np.random.default_rng(seed)
    H = hidden // 2

    def mat(*shape):
        bound = np.sqrt(6.0 / sum(shape))
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)

    p: dict[str, np.ndarray] = {
        "Ec": mat(n_chars, char_dim),
        "Ew": mat(n_words, word_dim),
    }
    in_dim = char_dim + word_dim
    for layer in range(layers):
        d = in_dim if layer == 0 else hidden
        for direction in ("f", "b"):
            p[f"W{layer}{direction}"] = mat(d, 4 * H)
            p[f"U{layer}{direction}"] = mat(H, 4 * H)
            b = np.zeros(4 * H, np.float32)
            b[H : 2 * H] = 1.0  # forget-gate bias 1 (standard LSTM init)
            p[f"b{layer}{direction}"] = b
    for head in ("c", "t"):  # chunk / type heads share the shape
        p[f"hw_{head}_tW"] = mat(hidden, hidden)
        p[f"hw_{head}_tb"] = np.zeros(hidden, np.float32)
        p[f"hw_{head}_gW"] = mat(hidden, hidden)
        p[f"hw_{head}_gb"] = np.zeros(hidden, np.float32)
        p[f"proj_{head}_W"] = mat(hidden, label_dim)
        p[f"proj_{head}_b"] = np.zeros(label_dim, np.float32)
    p["Wc"] = mat(label_dim, 1)
    p["bc"] = np.zeros(1, np.float32)
    p["Wt"] = mat(label_dim, n_types)
    p["bt"] = np.zeros(n_types, np.float32)
    p["_dims_v2"] = np.asarray(
        [n_chars, n_words, n_types, char_dim, word_dim, hidden, layers,
         label_dim],
        np.int64,
    )
    return p


def _lstm_forward(x, W, U, b, mask, reverse=False):
    """Masked LSTM scan. x: (T,B,D) -> h: (T,B,H); torch gate order
    i,f,g,o (`nn.LSTM`); masked steps pass (h,c) through unchanged."""
    T, B, _ = x.shape
    H = U.shape[0]
    # dtype follows the input so a float64 gradcheck stays float64
    h = np.zeros((T, B, H), x.dtype)
    cache = []
    hp = np.zeros((B, H), x.dtype)
    cp = np.zeros((B, H), x.dtype)
    steps = range(T - 1, -1, -1) if reverse else range(T)
    pre = x @ W + b  # (T,B,4H)
    for t in steps:
        z = pre[t] + hp @ U
        i = _sigmoid(z[:, :H])
        f = _sigmoid(z[:, H : 2 * H])
        g = np.tanh(z[:, 2 * H : 3 * H])
        o = _sigmoid(z[:, 3 * H :])
        c = f * cp + i * g
        tc = np.tanh(c)
        m = mask[t][:, None]
        ht = m * (o * tc) + (1 - m) * hp
        ct = m * c + (1 - m) * cp
        cache.append((t, hp, cp, i, f, g, o, tc))
        h[t] = ht
        hp, cp = ht, ct
    return h, cache


def _lstm_backward(dh_all, x, W, U, mask, cache):
    """Backprop through the masked LSTM scan; returns (dx, dW, dU, db)."""
    H = U.shape[0]
    dx = np.zeros_like(x)
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros(4 * H, np.float32)
    B = x.shape[1]
    dhp = np.zeros((B, H), np.float32)
    dcp = np.zeros((B, H), np.float32)
    for t, hp, cp, i, f, g, o, tc in reversed(cache):
        m = mask[t][:, None]
        dh_total = dh_all[t] + dhp
        dh = dh_total * m
        dhp_skip = dh_total * (1 - m)
        dc = dh * o * (1 - tc * tc) + dcp * m
        dcp_skip = dcp * (1 - m)
        do = dh * tc
        df = dc * cp
        di = dc * g
        dg = dc * i
        dcp = dc * f + dcp_skip
        dz = np.concatenate(
            [
                di * i * (1 - i),
                df * f * (1 - f),
                dg * (1 - g * g),
                do * o * (1 - o),
            ],
            axis=1,
        )
        dU += hp.T @ dz
        dW += x[t].T @ dz
        db += dz.sum(axis=0)
        dx[t] = dz @ W.T
        dhp = dz @ U.T + dhp_skip
    return dx, dW, dU, db


def forward_v2(params, char_ids, word_ids, droprate=0.0, rng=None):
    """Stacked bi-LSTM encoder. Returns (h_fwd, h_bwd, cache) where
    h_fwd/h_bwd are the FINAL layer's per-direction streams (T,B,H).
    Dropout (inverted) on the embedding concat and between layers, as the
    reference (`ner.py:131` drop on emb; `basic.py:76` drop on layer
    outputs)."""
    p = params
    layers = int(p["_dims_v2"][6])
    xc = p["Ec"][char_ids]
    xw = p["Ew"][word_ids]
    x = np.concatenate([xc, xw], axis=2)
    mask = (char_ids != PAD).astype(np.float32)
    drops = []
    if droprate > 0.0:
        d = (rng.random(x.shape) >= droprate).astype(np.float32) / (
            1 - droprate
        )
        x = x * d
        drops.append(d)
    inp = x
    layer_caches = []
    hf = hb = None
    for layer in range(layers):
        hf, cf = _lstm_forward(
            inp, p[f"W{layer}f"], p[f"U{layer}f"], p[f"b{layer}f"], mask
        )
        hb, cb = _lstm_forward(
            inp, p[f"W{layer}b"], p[f"U{layer}b"], p[f"b{layer}b"], mask,
            reverse=True,
        )
        out = np.concatenate([hf, hb], axis=2)
        dmask = None
        if droprate > 0.0 and layer < layers - 1:
            dmask = (rng.random(out.shape) >= droprate).astype(
                np.float32
            ) / (1 - droprate)
            out = out * dmask
        layer_caches.append((inp, cf, cb, dmask))
        inp = out
    cache = {
        "x": x,
        "mask": mask,
        "emb_drop": drops[0] if drops else None,
        "layers": layer_caches,
        "char_ids": char_ids,
        "word_ids": word_ids,
    }
    return hf, hb, cache


def backward_v2(params, grads, dhf, dhb, cache):
    """Backprop dh on the final layer's streams down through the stack
    to the embedding tables (accumulated into ``grads``)."""
    p = params
    layers = int(p["_dims_v2"][6])
    mask = cache["mask"]
    H = dhf.shape[2]
    for layer in range(layers - 1, -1, -1):
        inp, cf, cb, dmask = cache["layers"][layer]
        dxf, dWf, dUf, dbf = _lstm_backward(
            dhf, inp, p[f"W{layer}f"], p[f"U{layer}f"], mask, cf
        )
        dxb, dWb, dUb, dbb = _lstm_backward(
            dhb, inp, p[f"W{layer}b"], p[f"U{layer}b"], mask, cb
        )
        grads[f"W{layer}f"] += dWf
        grads[f"U{layer}f"] += dUf
        grads[f"b{layer}f"] += dbf
        grads[f"W{layer}b"] += dWb
        grads[f"U{layer}b"] += dUb
        grads[f"b{layer}b"] += dbb
        dinp = dxf + dxb
        if layer > 0:
            prev_dmask = cache["layers"][layer - 1][3]
            if prev_dmask is not None:
                dinp = dinp * prev_dmask
            dhf = dinp[:, :, :H]
            dhb = dinp[:, :, H:]
        else:
            if cache["emb_drop"] is not None:
                dinp = dinp * cache["emb_drop"]
            Cd = p["Ec"].shape[1]
            np.add.at(grads["Ec"], cache["char_ids"], dinp[:, :, :Cd])
            np.add.at(grads["Ew"], cache["word_ids"], dinp[:, :, Cd:])


def head_forward_v2(params, head, X, droprate=0.0, rng=None):
    """highway -> drop -> proj -> drop -> linear (`ner.py:63-64`
    chunk_layer/type_layer with add_proj). X: (N, hidden). Returns
    (out, cache)."""
    p = params
    d0 = None
    if droprate > 0.0:  # `ner.py:150` drop on the head input
        d0 = (rng.random(X.shape) >= droprate).astype(np.float32) / (
            1 - droprate
        )
        X = X * d0
    g = _sigmoid(X @ p[f"hw_{head}_gW"] + p[f"hw_{head}_gb"])
    hrelu = np.maximum(X @ p[f"hw_{head}_tW"] + p[f"hw_{head}_tb"], 0.0)
    hw = g * hrelu + (1 - g) * X
    d1 = None
    if droprate > 0.0:
        d1 = (rng.random(hw.shape) >= droprate).astype(np.float32) / (
            1 - droprate
        )
        hw = hw * d1
    proj = hw @ p[f"proj_{head}_W"] + p[f"proj_{head}_b"]
    d2 = None
    if droprate > 0.0:
        d2 = (rng.random(proj.shape) >= droprate).astype(np.float32) / (
            1 - droprate
        )
        proj = proj * d2
    oW, ob = ("Wc", "bc") if head == "c" else ("Wt", "bt")
    out = proj @ p[oW] + p[ob]
    return out, (X, g, hrelu, hw, proj, d0, d1, d2)


def head_backward_v2(params, grads, head, dout, cache):
    """Backprop the head; returns dX (N, hidden)."""
    p = params
    X, g, hrelu, hw, proj, d0, d1, d2 = cache
    oW, ob = ("Wc", "bc") if head == "c" else ("Wt", "bt")
    grads[oW] += proj.T @ dout
    grads[ob] += dout.sum(axis=0)
    dproj = dout @ p[oW].T
    if d2 is not None:
        dproj = dproj * d2
    grads[f"proj_{head}_W"] += hw.T @ dproj
    grads[f"proj_{head}_b"] += dproj.sum(axis=0)
    dhw = dproj @ p[f"proj_{head}_W"].T
    if d1 is not None:
        dhw = dhw * d1
    dX = dhw * (1 - g)
    dhrelu = dhw * g
    dg = dhw * (hrelu - X)
    dz_t = dhrelu * (hrelu > 0)
    grads[f"hw_{head}_tW"] += X.T @ dz_t
    grads[f"hw_{head}_tb"] += dz_t.sum(axis=0)
    dX = dX + dz_t @ p[f"hw_{head}_tW"].T
    dz_g = dg * g * (1 - g)
    grads[f"hw_{head}_gW"] += X.T @ dz_g
    grads[f"hw_{head}_gb"] += dz_g.sum(axis=0)
    dX = dX + dz_g @ p[f"hw_{head}_gW"].T
    if d0 is not None:
        dX = dX * d0
    return dX


def _gru_forward(x, W, U, b, mask, reverse=False):
    """x: (T, B, D), mask: (T, B) 1.0 on real positions -> h: (T, B, H).

    Masked steps pass state through unchanged, so PAD positions in a
    mixed-length batch never contaminate real positions (matters for the
    backward scan, which crosses the padding before the sentence)."""
    T, B, D = x.shape
    H = U.shape[0]
    h = np.zeros((T, B, H), np.float32)
    cache = []
    hp = np.zeros((B, H), np.float32)
    steps = range(T - 1, -1, -1) if reverse else range(T)
    pre = x @ W + b  # (T,B,3H)
    for t in steps:
        zr = pre[t][:, : 2 * H] + hp @ U[:, : 2 * H]
        z = _sigmoid(zr[:, :H])
        r = _sigmoid(zr[:, H:])
        c_in = pre[t][:, 2 * H :] + (r * hp) @ U[:, 2 * H :]
        c = np.tanh(c_in)
        m = mask[t][:, None]
        ht = m * ((1 - z) * hp + z * c) + (1 - m) * hp
        h[t] = ht
        cache.append((t, hp.copy(), z, r, c))
        hp = ht
    return h, cache


def _gru_backward(dh_all, x, W, U, b, mask, cache, reverse=False):
    """Backprop through the masked GRU; returns (dx, dW, dU, db)."""
    T, B, D = x.shape
    H = U.shape[0]
    dx = np.zeros_like(x)
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros_like(b)
    dhp = np.zeros((B, H), np.float32)
    for t_, hp, z, r, c in reversed(cache):
        m = mask[t_][:, None]
        dh_total = dh_all[t_] + dhp
        dh = dh_total * m          # through the GRU update
        dhp_skip = dh_total * (1 - m)  # straight through on masked steps
        dz = dh * (c - hp)
        dc = dh * z
        dhp_direct = dh * (1 - z)
        dc_in = dc * (1 - c * c)
        # candidate path
        dpre_c = dc_in
        d_rhp = dc_in @ U[:, 2 * H :].T
        dU[:, 2 * H :] += (r * hp).T @ dc_in
        dr = d_rhp * hp
        dhp_c = d_rhp * r
        # gates
        dzr = np.concatenate(
            [dz * z * (1 - z), dr * r * (1 - r)], axis=1
        )
        dU[:, : 2 * H] += hp.T @ dzr
        dhp_g = dzr @ U[:, : 2 * H].T
        dpre = np.concatenate([dzr, dpre_c], axis=1)
        dW += x[t_].T @ dpre
        db += dpre.sum(axis=0)
        dx[t_] = dpre @ W.T
        dhp = dhp_direct + dhp_c + dhp_g + dhp_skip
    return dx, dW, dU, db


def forward(params, char_ids, word_ids):
    """char_ids/word_ids: (T, B) int32 (PAD-padded). Returns
    (h_fwd, h_bwd, caches, x, mask)."""
    xc = params["Ec"][char_ids]  # (T,B,Cd)
    xw = params["Ew"][word_ids]
    x = np.concatenate([xc, xw], axis=2)
    mask = (char_ids != PAD).astype(np.float32)
    hf, cf = _gru_forward(x, params["Wf"], params["Uf"], params["bf"], mask)
    hb, cb = _gru_forward(
        x, params["Wb"], params["Ub"], params["bb"], mask, reverse=True
    )
    return hf, hb, (cf, cb), x, mask


# ---------------------------------------------------------------------------
# Inference kernel: per-direction scan, no backward cache
# ---------------------------------------------------------------------------
#
# The usual RNN inference split: the input projection does not depend on
# the state, so it runs before the time loop as one GEMM per direction
# over all T·B positions, into G (2, T, B, k·H) in position order. Loop
# step t advances the forward direction at position t (input row
# G[0, t]) and the backward direction at position T-1-t (G[1, T-1-t]).
# The state is (2, B, H) and each gate group costs one stacked
# (2, B, H) @ (2, H, ·) matmul; the elementwise updates run in place in
# buffers allocated once per scan. Sigmoid gates are computed as
# 0.5·(1+tanh(x/2)), with the 1/2 folded into their weight and bias
# columns (an exact power-of-two scale).
#
# Batch invariance: with OpenBLAS (measured on its Haswell kernels) the
# last row of an odd-row float32 GEMM comes out a few ulp off what the
# same row gives in an even-row GEMM, and the recurrence compounds that
# to ~3e-6. So an odd batch is scanned with one extra all-PAD column. Every sentence's states are then the same
# bits alone, in its 128-row batch or in a whole-corpus bucket
# (tests/test_tagger_infer.py checks this on the seed-1 kg_hybrid
# corpus), so the spans do not depend on how Ray or a caller batches
# the rows.

def _input_gates(x, Wf, bf, Wb, bb, scale):
    """``x @ W + b`` per direction over every position: (2, T, B, k·H),
    gate columns multiplied by ``scale``."""
    T, B, D = x.shape
    G = np.empty((2, T * B, len(scale)), x.dtype)
    for g, W, b in ((G[0], Wf, bf), (G[1], Wb, bb)):
        np.matmul(x.reshape(T * B, D), W * scale, out=g)
        g += b * scale
    return G.reshape(2, T, B, -1)


def _scan_masks(mask):
    """(0/1 backward-direction mask per loop step (T, B, 1), the loop
    steps where it has a zero). PAD is a suffix of every column, so the
    backward direction crosses it first: zeroing its state there keeps
    it at zero, exactly as a scan that skips PAD. The forward direction
    reaches PAD only after its real positions and is zeroed there after
    the loop."""
    back = mask[::-1, :, None].astype(np.float32)
    return back, ~mask.all(axis=1)[::-1]


def _bigru_scan(x, p, mask):
    H = p["Uf"].shape[0]
    scale = np.ones(3 * H, x.dtype)
    scale[: 2 * H] = 0.5  # z, r
    G = _input_gates(x, p["Wf"], p["bf"], p["Wb"], p["bb"], scale)
    Gzr, Gc = G[..., : 2 * H], G[..., 2 * H :]
    U = np.stack([p["Uf"], p["Ub"]]) * scale
    Uzr = np.ascontiguousarray(U[..., : 2 * H])
    Uc = np.ascontiguousarray(U[..., 2 * H :])
    back, has_pad = _scan_masks(mask)
    T, B = mask.shape
    out = np.empty((T, 2, B, H), x.dtype)
    h = np.zeros((2, B, H), x.dtype)
    zr = np.empty((2, B, 2 * H), x.dtype)
    z, r = zr[..., :H], zr[..., H:]
    rh, c = np.empty_like(h), np.empty_like(h)
    for t in range(T):
        np.matmul(h, Uzr, out=zr)
        zr[0] += Gzr[0, t]
        zr[1] += Gzr[1, T - 1 - t]
        np.tanh(zr, out=zr)
        zr += 1.0
        zr *= 0.5
        np.multiply(r, h, out=rh)
        np.matmul(rh, Uc, out=c)
        c[0] += Gc[0, t]
        c[1] += Gc[1, T - 1 - t]
        np.tanh(c, out=c)
        c -= h
        c *= z
        h += c  # (1 - z)·h + z·c
        if has_pad[t]:
            h[1] *= back[t]
        out[t] = h
    out[:, 0] *= mask[:, :, None]
    return out[:, 0], out[::-1, 1]


def _bilstm_scan(x, Wf, bf, Uf, Wb, bb, Ub, mask):
    H = Uf.shape[0]
    scale = np.full(4 * H, 0.5, x.dtype)
    scale[2 * H : 3 * H] = 1.0  # i, f, o are sigmoid gates; g is tanh
    G = _input_gates(x, Wf, bf, Wb, bb, scale)
    U = np.stack([Uf, Ub]) * scale
    back, has_pad = _scan_masks(mask)
    T, B = mask.shape
    out = np.empty((T, 2, B, H), x.dtype)
    h = np.zeros((2, B, H), x.dtype)
    c = np.zeros_like(h)
    a = np.empty((2, B, 4 * H), x.dtype)
    s = np.empty_like(a)
    i, f, o, g = (s[..., :H], s[..., H : 2 * H], s[..., 3 * H :],
                  a[..., 2 * H : 3 * H])
    ig = np.empty_like(h)
    for t in range(T):
        np.matmul(h, U, out=a)
        a[0] += G[0, t]
        a[1] += G[1, T - 1 - t]
        np.tanh(a, out=a)
        np.add(a, 1.0, out=s)
        s *= 0.5
        c *= f
        np.multiply(i, g, out=ig)
        c += ig
        np.tanh(c, out=h)
        h *= o
        if has_pad[t]:
            h[1] *= back[t]
            c[1] *= back[t]
        out[t] = h
    out[:, 0] *= mask[:, :, None]
    return out[:, 0], out[::-1, 1]


def infer_states(params, arch: str, char_ids, word_ids):
    """Inference-only encoder forward: (h_fwd, h_bwd), each (T, B, H)
    in position order, for ``arch`` "gru" (one bi-GRU) or "lstm" (the
    stacked bi-LSTM, no dropout). On real (non-PAD) positions it matches
    :func:`forward` / :func:`forward_v2` to float32 rounding; PAD
    positions read as zero state. Training keeps using those two, for
    their caches."""
    p = params
    B = char_ids.shape[1]
    if B % 2:  # see "Batch invariance" above
        char_ids = np.pad(char_ids, ((0, 0), (0, 1)), constant_values=PAD)
        word_ids = np.pad(word_ids, ((0, 0), (0, 1)),
                          constant_values=WORD_PAD)
    x = np.concatenate([p["Ec"][char_ids], p["Ew"][word_ids]], axis=2)
    mask = char_ids != PAD
    if arch != "lstm":
        hf, hb = _bigru_scan(x, p, mask)
    else:
        for layer in range(int(p["_dims_v2"][6])):
            hf, hb = _bilstm_scan(
                x, *(p[f"{k}{layer}{d}"] for d in "fb" for k in "WbU"), mask
            )
            x = np.concatenate([hf, hb], axis=2)
    return hf[:, :B], hb[:, :B]


def chunk_scores(params, hf, hb, slot_pos, b):
    """Boundary scores for one sentence b: (n_slots,)."""
    reps = np.concatenate([hf[slot_pos, b], hb[slot_pos, b]], axis=1)
    return (reps @ params["Wc"] + params["bc"])[:, 0]


def type_logits(params, hf, hb, b, left_pos, right_pos):
    rep = np.concatenate([hb[left_pos, b], hf[right_pos, b]], axis=0)
    hid = np.tanh(rep @ params["Wt1"] + params["bt1"])
    return hid @ params["Wt2"] + params["bt2"]


# ---------------------------------------------------------------------------
# Loss + training step (T5)
# ---------------------------------------------------------------------------

def soft_ce(logits: np.ndarray, khot: np.ndarray):
    """softCE of `model_partial_ner/object.py:16-67`: the CE target is the
    MODEL'S OWN masked softmax over the allowed types —
    ``t = khot*exp(s) / sum(khot*exp(s))`` — not a uniform k-hot. The
    reference does not detach the target, so the gradient flows through
    it too:

        dL/ds_k = (p_k - t_k) - t_k * (log p_k + L)

    (second term vanishes for single-type spans, where t is one-hot and
    the loss reduces to standard CE; multi-type spans differ).
    """
    m = logits.max()
    logp = logits - (m + np.log(np.exp(logits - m).sum()))
    p = np.exp(logp)
    masked = khot * np.exp(logits - m)
    target = masked / max(masked.sum(), 1e-30)
    loss = -(target * logp).sum()
    dlogits = (p - target) - target * (logp + loss)
    return loss, dlogits.astype(np.float32)


def bce_logits(score: float, label: float):
    p = _sigmoid(np.float32(score))
    loss = -(label * np.log(p + 1e-12) + (1 - label) * np.log(1 - p + 1e-12))
    return float(loss), float(p - label)


def soft_ce_rows(logits: np.ndarray, khots: np.ndarray):
    """Vectorized :func:`soft_ce` over N rows. Returns (mean loss,
    dlogits already divided by N — reference softCE ``if_average``)."""
    m = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - m)
    logp = (logits - m) - np.log(ex.sum(axis=1, keepdims=True))
    p = np.exp(logp)
    masked = khots * ex
    target = masked / np.maximum(masked.sum(axis=1, keepdims=True), 1e-30)
    loss_rows = -(target * logp).sum(axis=1)
    dlogits = (p - target) - target * (logp + loss_rows[:, None])
    n = len(logits)
    return float(loss_rows.mean()), (dlogits / n).astype(np.float32)


class Tagger:
    """Trainable numpy tagger bundling params + vocab maps (S11-style
    checkpoint: one npz holds weights and maps)."""

    def __init__(self, c_map, w_map, tl_map, arch: str = "gru", **hp):
        self.c_map, self.w_map, self.tl_map = c_map, w_map, tl_map
        self.types = [t for t, _ in sorted(tl_map.items(), key=lambda kv: kv[1])]
        self.arch = arch
        init = init_params_v2 if arch == "lstm" else init_params
        self.params = init(
            n_chars=CHAR_SPECIALS + len(c_map),
            n_words=WORD_SPECIALS + len(w_map),
            n_types=len(tl_map),
            **hp,
        )

    def load_word_embeddings(self, emb: np.ndarray) -> None:
        """Install pretrained word vectors (reference
        `ner.py:96-104` load_pretrained_word_embedding). Shape must
        match the (n_words, word_dim) table built at init."""
        assert emb.shape == self.params["Ew"].shape, (
            emb.shape, self.params["Ew"].shape
        )
        self.params["Ew"] = emb.astype(np.float32)

    # -- persistence (S11) -------------------------------------------------
    def to_bytes(self) -> bytes:
        import json

        buf = io.BytesIO()
        meta = json.dumps(
            {
                "c_map": self.c_map,
                "w_map": self.w_map,
                "tl_map": self.tl_map,
                "arch": self.arch,
            }
        )
        np.savez(
            buf,
            __meta__=np.frombuffer(meta.encode(), np.uint8),
            **{k: v for k, v in self.params.items()},
        )
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Tagger":
        import json

        with np.load(io.BytesIO(blob)) as z:
            meta = json.loads(bytes(z["__meta__"]).decode())
            obj = cls.__new__(cls)
            obj.c_map = meta["c_map"]
            obj.w_map = meta["w_map"]
            obj.tl_map = meta["tl_map"]
            obj.types = [
                t
                for t, _ in sorted(obj.tl_map.items(), key=lambda kv: kv[1])
            ]
            obj.params = {
                k: z[k] for k in z.files if k != "__meta__"
            }
            # arch: explicit in meta (new blobs) or inferred from the
            # param key set (round-1 GRU blobs predate the field)
            obj.arch = meta.get(
                "arch", "lstm" if "_dims_v2" in obj.params else "gru"
            )
        return obj

    # -- batching helpers --------------------------------------------------
    def _pad_batch(self, records):
        T = max(len(r[0]) for r in records)
        B = len(records)
        char_ids = np.full((T, B), PAD, np.int32)
        word_ids = np.full((T, B), WORD_PAD, np.int32)
        for b, rec in enumerate(records):
            char_ids[: len(rec[0]), b] = rec[0]
            word_ids[: len(rec[1]), b] = rec[1]
        return char_ids, word_ids

    # -- inference (T4 + M15) ----------------------------------------------
    def run_encoder(self, records):
        """:func:`infer_states` over encoded records
        (``(char_ids, word_ids, slot_pos, ...)`` tuples, as
        :func:`encode_batch` gives). Returns the ``states`` that
        :meth:`predict_batch` takes: ``(records, h_fwd, h_bwd)``."""
        if not records:
            return records, None, None
        char_ids, word_ids = self._pad_batch(records)
        hf, hb = infer_states(self.params, self.arch, char_ids, word_ids)
        return records, hf, hb

    def _chunk_head(self, X):
        p = self.params
        if self.arch == "lstm":
            return head_forward_v2(p, "c", X)[0][:, 0]
        return (X @ p["Wc"] + p["bc"])[:, 0]

    def _type_head(self, X):
        p = self.params
        if self.arch == "lstm":
            return head_forward_v2(p, "t", X)[0]
        hid = np.tanh(X @ p["Wt1"] + p["bt1"])
        return hid @ p["Wt2"] + p["bt2"]

    def forward_states(self, sentences: list[list[str]]):
        """Encode + encoder forward only — pass to
        ``predict_batch(states=...)`` to amortize it across
        decode-parameter settings."""
        return self.run_encoder(
            encode_batch(sentences, self.c_map, self.w_map)
        )

    def predict_batch(self, sentences: list[list[str]],
                      threshold: float = 0.0, with_chunk_stats=False,
                      none_bias: float = 0.0, states=None):
        """Decode typed spans per sentence: list of (l, r, type, score).

        ``with_chunk_stats=True`` additionally returns (min, max) over
        ALL chunk-head scores in the batch — the statistic the reference
        inference driver tracks for threshold selection
        (`test_partial_ner.py:80-89` min/max of chunk_score), or
        (+inf, -inf) sentinels when the batch has no slots.

        ``none_bias`` is added to the None-type logit before the argmax:
        a negative bias trades precision for recall (distant supervision
        systematically under-labels, so decoded recall is the bottleneck);
        select it on dev like ``threshold``.

        ``states`` (from :meth:`forward_states` or :meth:`run_encoder`)
        skips the encode and the encoder forward: a decode-parameter
        sweep reuses one forward across many (threshold, none_bias), and
        ``bucketed_predict`` passes each bucket's states. Breaks and
        segments of every sentence come from array ops; both heads run
        once over the whole batch.
        """
        records, hf, hb = (
            states if states is not None else self.forward_states(sentences)
        )
        if not records:
            return ([], float("inf"), float("-inf")) if with_chunk_stats \
                else []
        # all boundary slots of all sentences, one head call
        n_slots = np.fromiter((len(r[2]) for r in records), np.int64,
                              len(records))
        offsets = np.concatenate([[0], np.cumsum(n_slots)])
        pos = np.concatenate([r[2] for r in records])
        bidx = np.repeat(np.arange(len(records)), n_slots)
        X_chunk = np.concatenate([hf[pos, bidx], hb[pos, bidx]], axis=1)
        scores_all = self._chunk_head(X_chunk)
        # score < threshold => Break (test_partial_ner.py:91); every
        # sentence's first and last slot always break. A segment joins
        # two consecutive breaks of the same sentence.
        is_break = scores_all < threshold
        is_break[offsets[:-1]] = True
        is_break[offsets[1:] - 1] = True
        brk = np.flatnonzero(is_break)
        a, c = brk[:-1], brk[1:]
        same = bidx[a] == bidx[c]
        a, c = a[same], c[same]
        seg_b = bidx[a]
        out: list[list] = [[] for _ in records]
        if len(a):
            X_type = np.concatenate(
                [hb[pos[a], seg_b], hf[pos[c], seg_b]], axis=1
            )
            logits = self._type_head(X_type)
            if none_bias:
                logits = logits.copy()
                logits[:, self.types.index(NONE_TYPE)] += none_bias
            tis = np.argmax(logits, axis=1)
            keep = np.asarray(self.types)[tis] != NONE_TYPE
            base = offsets[seg_b]
            for b, l, r, ti, score in zip(
                seg_b[keep].tolist(), (a - base)[keep].tolist(),
                (c - base)[keep].tolist(), tis[keep].tolist(),
                logits[keep, tis[keep]].tolist(),
            ):
                out[b].append((l, r, self.types[ti], score))
        if with_chunk_stats:
            return out, float(scores_all.min()), float(scores_all.max())
        return out

    # -- one SGD step on one token-budget batch (T5) -----------------------
    def train_batch(self, batch, lr: float, momentum: float = 0.9,
                    clip: float = 5.0, velocity=None):
        """batch: list of (char_ids, word_ids, slot_pos, brk, known, spans).
        Returns (loss, velocity)."""
        char_ids, word_ids = self._pad_batch(batch)
        p = self.params
        hf, hb, (cf, cb), x, mask = forward(p, char_ids, word_ids)
        T, B, H = hf.shape
        dhf = np.zeros_like(hf)
        dhb = np.zeros_like(hb)
        grads = {
            k: np.zeros_like(v)
            for k, v in p.items()
            if not k.startswith("_")
        }
        total, n_terms = 0.0, 0
        for b, rec in enumerate(batch):
            ci, wi, slots, brk, known, spans = rec
            # chunking BCE on KNOWN slots (S/D mask, encode_folder.py:74-88)
            reps = np.concatenate([hf[slots, b], hb[slots, b]], axis=1)
            scores = (reps @ p["Wc"] + p["bc"])[:, 0]
            for i in np.nonzero(known)[0]:
                # label 1 = Tie (high score), 0 = Break: score<thr => Break
                label = 0.0 if brk[i] == 1.0 else 1.0
                loss, dscore = bce_logits(scores[i], label)
                total += loss
                n_terms += 1
                drep = dscore * p["Wc"][:, 0]
                grads["Wc"][:, 0] += dscore * reps[i]
                grads["bc"][0] += dscore
                dhf[slots[i], b] += drep[:H]
                dhb[slots[i], b] += drep[H:]
            # typing softCE
            for l, r, khot in spans:
                lp, rp = slots[l], slots[r]
                rep = np.concatenate([hb[lp, b], hf[rp, b]])
                hid_in = rep @ p["Wt1"] + p["bt1"]
                hid = np.tanh(hid_in)
                logits = hid @ p["Wt2"] + p["bt2"]
                loss, dlogits = soft_ce(logits, khot)
                total += loss
                n_terms += 1
                grads["Wt2"] += np.outer(hid, dlogits)
                grads["bt2"] += dlogits
                dhid = (dlogits @ p["Wt2"].T) * (1 - hid * hid)
                grads["Wt1"] += np.outer(rep, dhid)
                grads["bt1"] += dhid
                drep = p["Wt1"] @ dhid
                dhb[lp, b] += drep[:H]
                dhf[rp, b] += drep[H:]
        # backprop through both GRUs
        dx_f, dWf, dUf, dbf = _gru_backward(
            dhf, x, p["Wf"], p["Uf"], p["bf"], mask, cf
        )
        dx_b, dWb, dUb, dbb = _gru_backward(
            dhb, x, p["Wb"], p["Ub"], p["bb"], mask, cb, reverse=True
        )
        grads["Wf"] += dWf; grads["Uf"] += dUf; grads["bf"] += dbf
        grads["Wb"] += dWb; grads["Ub"] += dUb; grads["bb"] += dbb
        dx = dx_f + dx_b
        Cd = p["Ec"].shape[1]
        np.add.at(grads["Ec"], char_ids, dx[:, :, :Cd])
        np.add.at(grads["Ew"], word_ids, dx[:, :, Cd:])
        # clip global norm at 5 (train_partial_ner.py:140)
        norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        scale = min(1.0, clip / (norm + 1e-12))
        if velocity is None:
            velocity = {k: np.zeros_like(v) for k, v in grads.items()}
        for k, g in grads.items():
            velocity[k] = momentum * velocity[k] - lr * scale * g
            p[k] += velocity[k]
        return total / max(n_terms, 1), velocity

    # -- one Adam step on one token-budget batch (T5, v2 arch) --------------
    def train_batch_v2(self, batch, lr: float = 1e-3, droprate: float = 0.5,
                       clip: float = 5.0, adam_state=None, rng=None):
        """Reference-default objective on the v2 (LSTM+highway) arch:
        ``BCEWithLogitsLoss`` (mean over supervised slots) + softCE (mean
        over spans), Adam, global-norm clip 5
        (`train_partial_ner.py:50,89,135-140`). Heads are VECTORIZED
        across every slot/span in the batch — no per-sentence python
        loop touches the hot path."""
        assert self.arch == "lstm"
        if rng is None:
            rng = np.random.default_rng(0)
        char_ids, word_ids = self._pad_batch(batch)
        p = self.params
        hf, hb, cache = forward_v2(p, char_ids, word_ids, droprate, rng)
        H = hf.shape[2]
        grads = {
            k: np.zeros_like(v)
            for k, v in p.items()
            if not k.startswith("_")
        }
        dhf = np.zeros_like(hf)
        dhb = np.zeros_like(hb)
        pos_l, b_l, lab_l = [], [], []
        sp_lp, sp_rp, sp_b, sp_khot = [], [], [], []
        for b, rec in enumerate(batch):
            ci, wi, slots, brk, known, spans = rec
            for i in np.nonzero(known)[0]:
                pos_l.append(slots[i])
                b_l.append(b)
                # label 1 = Tie (high score), 0 = Break: score<thr => Break
                lab_l.append(0.0 if brk[i] == 1.0 else 1.0)
            for l, r, khot in spans:
                sp_lp.append(slots[l])
                sp_rp.append(slots[r])
                sp_b.append(b)
                sp_khot.append(khot)
        loss_total = 0.0
        if pos_l:
            pos = np.asarray(pos_l)
            bb = np.asarray(b_l)
            lab = np.asarray(lab_l, np.float32)
            Xc = np.concatenate([hf[pos, bb], hb[pos, bb]], axis=1)
            out, hc = head_forward_v2(p, "c", Xc, droprate, rng)
            s = out[:, 0]
            pr = _sigmoid(s)
            n = len(s)
            loss_total += float(
                -(lab * np.log(pr + 1e-12)
                  + (1 - lab) * np.log(1 - pr + 1e-12)).mean()
            )
            dscore = ((pr - lab) / n).astype(np.float32)
            dX = head_backward_v2(p, grads, "c", dscore[:, None], hc)
            np.add.at(dhf, (pos, bb), dX[:, :H])
            np.add.at(dhb, (pos, bb), dX[:, H:])
        if sp_lp:
            lp = np.asarray(sp_lp)
            rp = np.asarray(sp_rp)
            sb = np.asarray(sp_b)
            K = np.stack(sp_khot)
            Xt = np.concatenate([hb[lp, sb], hf[rp, sb]], axis=1)
            logits, ht = head_forward_v2(p, "t", Xt, droprate, rng)
            loss_t, dlogits = soft_ce_rows(logits.astype(np.float64), K)
            loss_total += loss_t
            dX = head_backward_v2(p, grads, "t", dlogits, ht)
            np.add.at(dhb, (lp, sb), dX[:, :H])
            np.add.at(dhf, (rp, sb), dX[:, H:])
        backward_v2(p, grads, dhf, dhb, cache)
        # global-norm clip 5 then Adam (reference default optimizer)
        norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        scale = min(1.0, clip / (norm + 1e-12))
        if adam_state is None:
            adam_state = {
                "t": 0,
                "m": {k: np.zeros_like(v) for k, v in grads.items()},
                "v": {k: np.zeros_like(v) for k, v in grads.items()},
            }
        adam_state["t"] += 1
        t = adam_state["t"]
        b1, b2, eps = 0.9, 0.999, 1e-8
        for k, g in grads.items():
            g = g * scale
            adam_state["m"][k] = b1 * adam_state["m"][k] + (1 - b1) * g
            adam_state["v"][k] = b2 * adam_state["v"][k] + (1 - b2) * g * g
            mhat = adam_state["m"][k] / (1 - b1**t)
            vhat = adam_state["v"][k] / (1 - b2**t)
            p[k] -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(np.float32)
        return loss_total, adam_state


# ---------------------------------------------------------------------------
# Span-F1 evaluation (A4) — partial counts, mergeable
# ---------------------------------------------------------------------------

def span_f1_counts(gold_spans, pred_spans):
    """Per-sentence (n_gold, n_pred, n_overlap) over typed spans."""
    g = {(l, r, t) for l, r, t in gold_spans}
    p = {(l, r, t) for l, r, t, *_ in pred_spans}
    return len(g), len(p), len(g & p)


def f1_from_counts(n_gold: int, n_pred: int, n_hit: int):
    prec = n_hit / (n_pred + 1e-6)
    rec = n_hit / (n_gold + 1e-6)
    return {
        "precision": round(prec, 6),
        "recall": round(rec, 6),
        "f1": round(2 * prec * rec / (prec + rec + 1e-6), 6),
    }
