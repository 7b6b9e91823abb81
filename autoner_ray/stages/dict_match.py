"""Dictionary-matching stage (T1 trie + T2 segmentDP).

Two execution shapes over the same :class:`DictMatcher`:
- ``dict_match_fn(...)`` (DEFAULT): a TASK-pool function whose matcher
  is built once per WORKER PROCESS and cached for the whole session —
  repeated pipelines over the same dictionaries pay zero per-run pool
  spawn or trie rebuild. Memory ≈ one trie per worker ≈ CPU-count
  copies per node.
- ``map_batches(DictMatcher, concurrency=N, ...)``: the classic FIXED
  actor pool — use when the dictionary is too large for a per-worker
  copy and must be bounded to N actors.
The matcher builds the trie from broadcast dictionary lines (plain
lists or ``ray.put`` handles — both accepted) and compiles it into
arrays once. Every ``__call__`` then segments the whole batch in one
vectorized kernel (:func:`autoner_ray.state.trie.segment_batch`) and
derives its output from the kernel's flat segment arrays; no per-row
Python runs. Embarrassingly parallel; no shuffle (SURVEY.md §2.3 T1/T2).

The per-sentence methods (:meth:`DictMatcher.segments`,
:meth:`~DictMatcher.mentions_of`, :meth:`~DictMatcher.typed_pairs_of`)
run the reference :func:`~autoner_ray.state.trie.segment_dp`. Tests
compare every batch output against them, and the tagger stages and
``synth.py`` use them per sentence.

Outputs (constructor ``output=``):
- ``"sentences"``: input row + ``entities: list<string>`` (sorted distinct
  canonical entities in the sentence) + ``mention_cnt: int32`` — the shape
  the triple stage consumes (pair generation must see whole sentences, so
  it happens on sentence rows, never on re-batched mention rows).
- ``"mentions"``: one row per typed mention:
  url, doc_id, sent_id, l, r, surface, types, canon
- ``"annotations"``: per-sentence Tie-or-Break projection:
  url, doc_id, sent_id, boundary list<int8>, types list<string>, ck string
- ``"pairs"``: pre-aggregated co-occurrence edge partials
  (subj, pred, obj, w) — the sentence->pair combiner fused into the
  matcher so each batch of ~2k sentences leaves the pool as ~10^2 tiny
  partial rows instead of 2k sentence rows (object-store traffic drops
  ~100x and no separate task stage competes with the pool for CPUs).
- ``"pairs_ev"``: same + an associative min "url#sent_id" evidence
  pointer per edge (provenance).
- ``"typed_pairs"``: pattern-rule predicates — gap tokens between a
  positional mention pair become the predicate (see
  :meth:`DictMatcher.typed_pairs_of`).

Row order of the edge outputs is unspecified; downstream aggregates.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from autoner_ray.functions.text import (
    is_separator_char,
    is_separator_token,
    normalize_surface,
)
from autoner_ray.stages.triples import PRED_COOCCUR, pairs_within
from autoner_ray.state.trie import (
    ENTITY,
    FILTERED,
    FILTERED_TYPE,
    NO_MATCH,
    build_trie,
    compile_trie,
    list_offsets,
    segment_batch,
    segment_dp,
)

# single-char separator tokens (``is_separator_token``), the subset
# ``get_boundary``/``get_types`` skip (all but "\n"), and the ``to_ck``
# sentence breaks
_SEPS = [c for c in map(chr, range(128)) if is_separator_char(c)]
_SEP_TOKENS = pa.array(_SEPS, pa.string())
_SEP_TOKENS_NO_NL = pa.array([c for c in _SEPS if c != "\n"], pa.string())
_CK_BREAKS = pa.array(["\n", "-DOCSTART-"], pa.string())


def _maybe_get(obj):
    """Accept a plain value or a ray.ObjectRef (broadcast handle)."""
    try:
        import ray

        if isinstance(obj, ray.ObjectRef):
            return ray.get(obj)
    except ImportError:
        pass
    return obj


class DictMatcher:
    def __init__(
        self,
        core_lines,
        full_lines=(),
        stopword_lines=(),
        weight: float = 1.0,
        output: str = "sentences",
    ) -> None:
        self.trie = build_trie(
            list(_maybe_get(core_lines)),
            list(_maybe_get(full_lines)),
            list(_maybe_get(stopword_lines)),
        )
        self.compiled = compile_trie(self.trie)
        self.weight = weight
        assert output in (
            "sentences", "mentions", "annotations", "pairs", "typed_pairs",
            "pairs_ev",
        )
        self.output = output

    # -- per-sentence reference ----------------------------------------------
    def segments(self, tokens: list[str]):
        return segment_dp(self.trie, tokens, self.weight)

    def mentions_of(self, tokens: list[str]):
        """Typed (non-FILTERED, non-O) segments as mention tuples."""
        out = []
        for l, r, ty in self.segments(tokens):
            if ty and ty != FILTERED_TYPE:
                surface = " ".join(tokens[l:r])
                out.append((l, r, surface, ty, normalize_surface(surface)))
        return out

    # -- pattern predicates -----------------------------------------------
    MAX_PRED_GAP = 2

    def typed_pairs_of(self, tokens: list[str]):
        """North-star "pattern rule" predicates: for each POSITIONAL pair
        of mentions in the sentence (left subject, right object), the
        predicate is the joined gap tokens when the gap is 1..MAX_PRED_GAP
        plain word tokens (no separators, no other mention between);
        otherwise the pair falls back to the undirected co-occurrence
        edge. Deterministic function of the token stream."""
        ms = self.mentions_of(tokens)
        out = []
        for i, (l1, r1, _s1, _t1, c1) in enumerate(ms):
            for l2, r2, _s2, _t2, c2 in ms[i + 1 :]:
                if c1 == c2:
                    continue
                gap = tokens[r1:l2]
                if (
                    1 <= len(gap) <= self.MAX_PRED_GAP
                    and not any(is_separator_token(t) for t in gap)
                ):
                    out.append((c1, "_".join(gap), c2))
                else:
                    a, b = sorted((c1, c2))
                    out.append((a, PRED_COOCCUR, b))
        return out

    # -- batch entry -------------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        tokens = batch["tokens"].combine_chunks()
        segs = segment_batch(self.compiled, tokens, self.weight)
        return getattr(self, "_out_" + self.output)(batch, tokens, *segs)

    def _mentions(self, sent, left, right, node):
        """The typed (entity) segments of a tiling."""
        m = self._seg_cls(node) == ENTITY
        return sent[m], left[m], right[m], node[m]

    def _seg_cls(self, node):
        """Score class of each segment (a skip segment is NO_MATCH)."""
        cls = self.compiled.cls[np.maximum(node, 0)]
        return np.where(node >= 0, cls, NO_MATCH)

    def _entities(self, sent, node):
        """Distinct canonical entities per sentence: (sentence, canon
        rank) pairs sorted by both — the sorted sets of the reference."""
        n_canon = len(self.compiled.canons)
        key = np.unique(sent * n_canon + self.compiled.canon_rank[node])
        return key // n_canon, key % n_canon

    def entity_lists(self, tokens: pa.Array) -> pa.ListArray:
        """The ``entities`` column of ``output="sentences"`` for a
        ``tokens`` list column: sorted distinct canonical entities per
        sentence, from one :func:`segment_batch` call."""
        ms, _, _, mnode = self._mentions(
            *segment_batch(self.compiled, tokens, self.weight)
        )
        return self._entity_column(len(tokens), ms, mnode)

    def typed_spans(self, tokens: pa.Array):
        """``(sentence, l, r, types)`` of every typed segment of a
        ``tokens`` list column: :meth:`mentions_of`'s spans for a whole
        batch, from one :func:`segment_batch` call."""
        ms, ml, mr, mnode = self._mentions(
            *segment_batch(self.compiled, tokens, self.weight)
        )
        return ms, ml, mr, self.compiled.type_str.take(mnode)

    def _entity_column(self, n, ms, mnode):
        es, erank = self._entities(ms, mnode)
        return _list_array(
            np.bincount(es, minlength=n), self.compiled.canons.take(erank)
        )

    def _out_sentences(self, batch, tokens, sent, left, right, node):
        n = batch.num_rows
        ms, _, _, mnode = self._mentions(sent, left, right, node)
        return pa.table(
            {
                "url": batch["url"],
                "doc_id": batch["doc_id"],
                "sent_id": batch["sent_id"],
                "entities": self._entity_column(n, ms, mnode),
                "mention_cnt": pa.array(
                    np.bincount(ms, minlength=n).astype(np.int32)
                ),
            }
        )

    def _cooccurrences(self, sent, left, right, node):
        """Pair counts over sorted distinct entities per sentence:
        ``(pair key, count, key of every occurrence, sentence of every
        occurrence)`` with key = subj rank * n_canon + obj rank."""
        ms, _, _, mnode = self._mentions(sent, left, right, node)
        es, erank = self._entities(ms, mnode)
        i, j = pairs_within(es)
        occ = erank[i] * len(self.compiled.canons) + erank[j]
        keys, inv, w = np.unique(occ, return_inverse=True, return_counts=True)
        return keys, w, inv, es[i]

    def _edge_table(self, keys, w, **extra) -> pa.Table:
        n_canon = len(self.compiled.canons)
        canons = self.compiled.canons
        return pa.table(
            {
                "subj": canons.take(keys // n_canon),
                "pred": pa.array([PRED_COOCCUR] * len(keys), pa.string()),
                "obj": canons.take(keys % n_canon),
                "w": pa.array(w.astype(np.int64)),
                **extra,
            }
        )

    def _out_pairs(self, batch, tokens, sent, left, right, node):
        keys, w, _, _ = self._cooccurrences(sent, left, right, node)
        return self._edge_table(keys, w)

    def _out_pairs_ev(self, batch, tokens, sent, left, right, node):
        # co-occurrence partials carrying PROVENANCE: per edge the
        # lexicographically-min "url#sent_id" evidence pointer. min() is
        # associative, so evidence merges exactly like the count.
        keys, w, inv, occ_sent = self._cooccurrences(sent, left, right, node)
        pointers = pc.binary_join_element_wise(
            batch["url"], pc.cast(batch["sent_id"], pa.string()), "#"
        )
        order = pc.sort_indices(pointers).to_numpy()
        pos = np.empty(len(order), np.int64)
        pos[order] = np.arange(len(order))
        best = np.full(len(keys), len(order), np.int64)
        np.minimum.at(best, inv, pos[occ_sent])
        return self._edge_table(keys, w, ev=pointers.take(order[best]))

    def _out_typed_pairs(self, batch, tokens, sent, left, right, node):
        ms, ml, mr, mnode = self._mentions(sent, left, right, node)
        i, j = pairs_within(ms)
        rank = self.compiled.canon_rank[mnode]
        i, j = (x[rank[i] != rank[j]] for x in (i, j))
        off = list_offsets(tokens)
        values = pc.list_flatten(tokens)
        is_sep = pc.is_in(values, value_set=_SEP_TOKENS).to_numpy(
            zero_copy_only=False
        )
        seps = np.concatenate([[0], np.cumsum(is_sep)])
        gap_start = off[ms[i]] + mr[i]
        gap_end = off[ms[j]] + ml[j]
        gap = gap_end - gap_start
        rule = (
            (gap >= 1)
            & (gap <= self.MAX_PRED_GAP)
            & (seps[gap_end] == seps[gap_start])
        )
        # pattern rule: subject left, object right, gap tokens joined
        # by "_"; otherwise the undirected co-occurrence edge
        first = values.take(gap_start[rule])
        second = values.take(np.minimum(gap_start[rule] + 1, len(values) - 1))
        pred = pc.if_else(
            pa.array(gap[rule] == 2),
            pc.binary_join_element_wise(first, second, "_"),
            first,
        )
        ri, rj = rank[i], rank[j]
        n_co = int((~rule).sum())
        counted = (
            pa.table(
                {
                    "subj": np.concatenate(
                        [ri[rule], np.minimum(ri, rj)[~rule]]
                    ),
                    "pred": pa.concat_arrays(
                        [pred, pa.array([PRED_COOCCUR] * n_co, pa.string())]
                    ),
                    "obj": np.concatenate(
                        [rj[rule], np.maximum(ri, rj)[~rule]]
                    ),
                }
            )
            .group_by(["subj", "pred", "obj"])
            .aggregate([("subj", "count")])
        )
        canons = self.compiled.canons
        return pa.table(
            {
                "subj": canons.take(counted["subj"]),
                "pred": counted["pred"],
                "obj": canons.take(counted["obj"]),
                "w": counted["subj_count"].cast(pa.int64()),
            }
        )

    def _out_mentions(self, batch, tokens, sent, left, right, node):
        ms, ml, mr, mnode = self._mentions(sent, left, right, node)
        ct = self.compiled
        return pa.table(
            {
                "url": batch["url"].take(ms).cast(pa.string()),
                "doc_id": batch["doc_id"].take(ms).cast(pa.int64()),
                "sent_id": batch["sent_id"].take(ms).cast(pa.int32()),
                "l": pa.array(ml.astype(np.int32)),
                "r": pa.array(mr.astype(np.int32)),
                "surface": ct.surface.take(mnode),
                "types": ct.type_str.take(mnode),
                "canon": ct.canons.take(ct.canon_rank[mnode]),
            }
        )

    def _out_annotations(self, batch, tokens, sent, left, right, node):
        """Vectorized :func:`get_boundary` / :func:`get_types` /
        :func:`to_ck` over the tiling (see ``functions/ck.py``)."""
        ct = self.compiled
        off = list_offsets(tokens)
        values = pc.list_flatten(tokens)
        n_tok = len(values)
        flat = off[sent] + left
        cls = self._seg_cls(node)
        # one-token separator segments other than "\n" keep the defaults
        ignored = (right - left == 1) & pc.is_in(
            values.take(flat), value_set=_SEP_TOKENS_NO_NL
        ).to_numpy(zero_copy_only=False)
        filt = (cls == FILTERED) & ~ignored
        ent = (cls == ENTITY) & ~ignored
        # boundary: FILTERED marks [l, r] inclusive (clamped to the
        # sentence); an entity then writes 1 at l and -1 inside, which
        # overrides a FILTERED span's trailing write at its l
        sent_last = off[sent + 1] - 1
        delta = np.zeros(n_tok + 1, np.int64)
        np.add.at(delta, flat[filt], 1)
        np.add.at(delta, np.minimum(off[sent] + right, sent_last)[filt] + 1, -1)
        boundary = np.where(np.cumsum(delta[:-1]) > 0, 0, 1).astype(np.int8)
        inside = np.zeros(n_tok + 1, np.int64)
        np.add.at(inside, flat[ent] + 1, 1)
        np.add.at(inside, (off[sent] + right)[ent], -1)
        boundary[np.cumsum(inside[:-1]) > 0] = -1
        boundary[flat[ent]] = 1
        # types: an entity segment stamps its type string on its tokens
        seg_len = right - left
        tok_node = np.repeat(np.where(ent, node, -1), seg_len)
        types = pa.concat_arrays(
            [ct.type_str, pa.array(["None"], pa.string())]
        ).take(np.where(tok_node >= 0, tok_node, len(ct.type_str)))
        lens = np.diff(off)
        return pa.table(
            {
                "url": batch["url"],
                "doc_id": batch["doc_id"],
                "sent_id": batch["sent_id"],
                "boundary": _list_array(lens, pa.array(boundary)),
                "types": _list_array(lens, types),
                "ck": self._ck(values, off, boundary, types),
            }
        )

    @staticmethod
    def _ck(values, off, boundary, types) -> pa.Array:
        """Per-sentence :func:`to_ck` text: one line per token, ``<s>``
        before a token that follows a break ("\\n"/"-DOCSTART-") or opens
        the sentence, ``<eof>`` before a break that follows a token."""
        n_tok = len(values)
        brk = pc.is_in(values, value_set=_CK_BREAKS).to_numpy(
            zero_copy_only=False
        )
        first = np.zeros(n_tok, bool)
        first[off[:-1][off[:-1] < n_tok]] = True
        prev_brk = np.ones(n_tok, bool)
        prev_brk[1:] = brk[:-1]
        prev_brk |= first
        prefix = np.where(
            brk,
            np.where(prev_brk, 0, 1),  # "" / "<eof> ..."
            np.where(prev_brk, 2, 0),  # "<s> ..." / ""
        )
        io = np.where(boundary == 1, " I ", " O ")
        mid = pc.binary_join_element_wise(pa.array(io), types, "")
        suffix = pc.if_else(
            pa.array(brk),
            pa.scalar("\n"),
            pc.if_else(
                pa.array(boundary == 0),
                pa.scalar(" O None D\n"),
                pc.binary_join_element_wise(mid, pa.scalar(" S\n"), ""),
            ),
        )
        lines = pc.binary_join_element_wise(
            pa.array(["", "<eof> I None S\n", "<s> O None S\n"]).take(
                prefix
            ),
            values,
            suffix,
            "",
        )
        return pc.binary_join(_list_array(np.diff(off), lines), "")


def _list_array(lengths: np.ndarray, values: pa.Array) -> pa.ListArray:
    off = np.zeros(len(lengths) + 1, np.int32)
    np.cumsum(lengths, out=off[1:])
    return pa.ListArray.from_arrays(pa.array(off), values)


# -- task-pool twin ------------------------------------------------------------

_MATCHER_CACHE: dict = {}
_MATCHER_CACHE_MAX = 8


def _cache_put(key, inst):
    """FIFO-bounded per-worker cache: a long session cycling many
    distinct dictionaries (test suites) must not accumulate tries."""
    if len(_MATCHER_CACHE) >= _MATCHER_CACHE_MAX:
        _MATCHER_CACHE.pop(next(iter(_MATCHER_CACHE)))
    _MATCHER_CACHE[key] = inst


def _content_key(lines) -> str:
    """Stable state key: ObjectRef hex (already content-addressed for the
    session) or an md5 over the lines themselves."""
    import hashlib

    try:
        import ray

        if isinstance(lines, ray.ObjectRef):
            return lines.hex()
    except ImportError:
        pass
    h = hashlib.md5()
    for ln in lines:
        h.update(ln.encode() if isinstance(ln, str) else ln)
        h.update(b"\n")
    return h.hexdigest()


_PAIR_KEY_BOUNDS: dict = {}


def pair_key_bound(core_lines, full_lines=(), stopword_lines=()) -> int:
    """Proven upper bound on the distinct edge keys of the ``"pairs"``
    and ``"pairs_ev"`` outputs over these dictionaries: C(n, 2) for the
    n distinct canonical surfaces of the compiled trie's entity nodes.
    Every key is two of those surfaces, the smaller first, under the one
    predicate ``cooccurs_with``. ``"typed_pairs"`` has no such bound:
    its predicates are gap tokens taken from the text.

    Cached per dictionary content, so a process builds the trie once.
    """
    key = tuple(map(_content_key, (core_lines, full_lines, stopword_lines)))
    if key not in _PAIR_KEY_BOUNDS:
        ct = compile_trie(
            build_trie(list(core_lines), list(full_lines),
                       list(stopword_lines))
        )
        n = len(np.unique(ct.canon_rank[ct.cls == ENTITY]))
        _PAIR_KEY_BOUNDS[key] = n * (n - 1) // 2
    return _PAIR_KEY_BOUNDS[key]


def dict_match_fn(core_lines, full_lines=(), stopword_lines=(),
                  weight: float = 1.0, output: str = "sentences"):
    """TASK-pool twin of the :class:`DictMatcher` actor class.

    Returns a plain function for ``map_batches`` — no actor pool. The
    trie is built once per WORKER PROCESS (module-level cache keyed by
    dictionary content + output mode) and then reused by every task of
    every query in the session: repeated pipelines over the same
    dictionaries pay the trie build once per worker instead of once per
    actor per run, and there is no per-run pool-spawn cost or
    fixed-pool CPU-budget deadlock to manage (same reasoning as the
    minhash signer, dedup.py).

    Dictionary lines are shipped as ``ray.put`` handles captured in the
    closure — tasks deserialize a tiny ref, not the dictionary.

    Memory bound: at most one trie per worker process ≈ CPU-count
    copies per node — the same count as the CPU-wide actor pool. For a
    dictionary too large for that budget, use the actor class with a
    narrower ``concurrency`` instead.
    """
    import ray

    key = (
        _content_key(core_lines),
        _content_key(full_lines),
        _content_key(stopword_lines),
        weight,
        output,
    )

    def _as_ref(lines):
        return lines if isinstance(lines, ray.ObjectRef) else ray.put(
            list(lines)
        )

    core_ref, full_ref, stop_ref = map(
        _as_ref, (core_lines, full_lines, stopword_lines)
    )

    def match_batch(batch: pa.Table) -> pa.Table:
        m = _MATCHER_CACHE.get(key)
        if m is None:
            m = DictMatcher(
                _maybe_get(core_ref),
                _maybe_get(full_ref),
                _maybe_get(stop_ref),
                weight,
                output,
            )
            _cache_put(key, m)
        return m(batch)

    return match_batch


def cached_stage_fn(cls, _cache_key_extra: str = "", **kwargs):
    """Generic task-pool wrapper for an actor-class stage: builds the
    class once per WORKER PROCESS (cache keyed by class + kwarg content)
    and reuses it for every task of every query in the session. List,
    tuple and bytes kwargs are shipped as ``ray.put`` handles so tasks
    deserialize a ref, not the payload. Same memory bound as
    :func:`dict_match_fn`: ≤ one instance per worker ≈ CPU-count copies
    per node. Use the actor class directly when the state exceeds that
    budget.

    ``_cache_key_extra``: REQUIRED whenever ``cls`` is a local class
    whose behavior depends on enclosing-scope variables (they are baked
    into the shipped class but invisible to the kwarg-content key) —
    pass their repr so differently-parameterized closures never share a
    cached instance."""
    import hashlib

    import ray

    def norm(v):
        if isinstance(v, ray.ObjectRef):
            return v.hex(), v
        if isinstance(v, (list, tuple)):
            return _content_key(v), ray.put(list(v))
        if isinstance(v, bytes):
            return hashlib.md5(v).hexdigest(), ray.put(v)
        return repr(v), v

    keyed = {k: norm(v) for k, v in sorted(kwargs.items())}
    key = (cls.__module__, cls.__qualname__, _cache_key_extra) + tuple(
        (k, h) for k, (h, _) in keyed.items()
    )
    shipped = {k: v for k, (_, v) in keyed.items()}

    def stage_batch(batch: pa.Table) -> pa.Table:
        inst = _MATCHER_CACHE.get(key)
        if inst is None:
            inst = cls(**{k: _maybe_get(v) for k, v in shipped.items()})
            _cache_put(key, inst)
        return inst(batch)

    return stage_batch
