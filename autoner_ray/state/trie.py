"""Typed-surface trie + weighted-interval segmentation DP.

Re-implements the dictionary-supervision core of the reference with exact
semantic parity (including its quirks, which golden-byte tests depend on):

- trie node model / entity vs filtered states    src/annotation.h:16-45
- case-variant insertion (raw + UPPER + lower)   src/annotation.h:52-138
- core-dict load (``noLowercases`` rules)        src/annotation.h:181-208
- full-dict load reusing the LAST core row's
  type-based ``noLowercases`` flag (bug-compat)  src/annotation.h:184,196,214
- load order: KB first, stopwords second — so the stopword-membership
  check during core load (src/annotation.h:197-204) sees an EMPTY stopword
  set in the ``bin/generate`` flow (src/annotation.h:235-243); replicated.
- stopword removal of 3 case variants            src/annotation.h:220-233
- ``segmentDP``                                  src/string_match.h:21-89
  (score len² for core match, weight·len² for full-dict match, strict
  inequality tie-breaks, matches never cross the "\\n" sentinel)

:class:`KBTrie` (plain Python dicts) is the build-time form and the input of
:func:`segment_dp`, the per-sentence reference implementation that tests
compare against. The execution path compiles it once per matcher into
arrays (:func:`compile_trie`) and segments a whole batch of sentences at
once (:func:`segment_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from autoner_ray.functions.text import (
    normalize_surface,
    split_by,
    strip_cpp,
    to_lower_ascii,
    to_upper_ascii,
)

FILTERED_TYPE = "__FILTERED__"


@dataclass
class _Node:
    children: dict[str, int] = field(default_factory=dict)
    types: set[str] = field(default_factory=set)


class KBTrie:
    """Token-level trie; node 0 is the root (src/annotation.h:47-50)."""

    def __init__(self) -> None:
        self.nodes: list[_Node] = [_Node()]
        self.stopword_set: set[str] = set()

    # -- construction ------------------------------------------------------
    def _descend_insert(self, tokens: list[str]) -> int:
        u = 0
        nodes = self.nodes
        for tok in tokens:
            ch = nodes[u].children
            v = ch.get(tok)
            if v is None:
                v = len(nodes)
                ch[tok] = v
                nodes.append(_Node())
            u = v
        return u

    def insert(
        self,
        tokens: list[str],
        types: list[str],
        no_lowercases: bool,
        must_exactly_same: bool = False,
    ) -> None:
        """src/annotation.h:99-138 — raw + ALL-UPPER (+ all-lower) variants."""
        u = self._descend_insert(tokens)
        self.nodes[u].types.update(types)
        if not must_exactly_same:
            u = self._descend_insert([to_upper_ascii(t) for t in tokens])
            self.nodes[u].types.update(types)
        if not no_lowercases:
            u = self._descend_insert([to_lower_ascii(t) for t in tokens])
            self.nodes[u].types.update(types)

    def mark_as_filtered(
        self,
        tokens: list[str],
        no_lowercases: bool,
        must_exactly_same: bool = False,
    ) -> None:
        """src/annotation.h:52-97 — FILTERED only lands on untyped nodes."""
        variants = [tokens]
        if not must_exactly_same:
            variants.append([to_upper_ascii(t) for t in tokens])
        if not no_lowercases:
            variants.append([to_lower_ascii(t) for t in tokens])
        for var in variants:
            u = self._descend_insert(var)
            if not self.nodes[u].types:
                self.nodes[u].types.add(FILTERED_TYPE)

    def remove(self, tokens: list[str]) -> None:
        """src/annotation.h:140-149 — clears types; keeps interior nodes."""
        u = 0
        for tok in tokens:
            v = self.nodes[u].children.get(tok)
            if v is None:
                return
            u = v
        self.nodes[u].types.clear()

    # -- queries -----------------------------------------------------------
    def get_child(self, u: int, token: str) -> int:
        """src/annotation.h:29-37."""
        if u < 0 or u >= len(self.nodes):
            return -1
        return self.nodes[u].children.get(token, -1)

    def is_entity(self, u: int) -> bool:
        """src/annotation.h:39-41."""
        if u < 0 or u >= len(self.nodes):
            return False
        t = self.nodes[u].types
        return len(t) > 0 and FILTERED_TYPE not in t

    def is_filtered(self, u: int) -> bool:
        """src/annotation.h:43-45."""
        if u < 0 or u >= len(self.nodes):
            return False
        t = self.nodes[u].types
        return len(t) == 1 and FILTERED_TYPE in t

    def get_types(self, u: int) -> set[str]:
        return self.nodes[u].types

    def in_kb(self, tokens: list[str]) -> bool:
        """src/annotation.h:151-160."""
        u = 0
        for tok in tokens:
            u = self.nodes[u].children.get(tok, -1)
            if u == -1:
                return False
        return len(self.nodes[u].types) > 0

    def get_type_from_kb(self, tokens: list[str]) -> str:
        """src/annotation.h:162-178 — comma-join in std::set (byte) order."""
        u = 0
        for tok in tokens:
            u = self.nodes[u].children.get(tok, -1)
            if u == -1:
                return ""
        return ",".join(sorted(self.nodes[u].types))


def load_kb(trie: KBTrie, core_lines: list[str], full_lines: list[str]) -> None:
    """src/annotation.h:181-218 — parse ``types<TAB>surface`` core rows then
    untyped full-dict phrases.

    Bug-compat details replicated:
    - ``noLowercasesForThisKB`` carries the type-based flag of the LAST core
      row into every full-dict insertion (src/annotation.h:184,196,214);
    - the stopword-membership escalation (src/annotation.h:197-204) consults
      ``trie.stopword_set`` which is empty when loading happens before
      :func:`clean_stopwords` (the ``bin/generate`` order).
    """
    no_lower_for_kb = False
    for raw in core_lines:
        line = raw.rstrip("\n\r")
        cols = split_by(line, "\t")
        assert len(cols) == 2, f"core dict row needs 2 tab-cols: {line!r}"
        entity_types = split_by(cols[0], ",")
        assert entity_types, line
        surface_tokens = split_by(strip_cpp(cols[1]), " ")
        no_lowercases = (
            "PER" in cols[0] or "ORG" in cols[0] or "LOC" in cols[0]
        )
        no_lower_for_kb = no_lowercases
        if not no_lowercases:
            for tok in surface_tokens:
                if to_lower_ascii(tok) in trie.stopword_set:
                    no_lowercases = True
                    break
        trie.insert(surface_tokens, entity_types, no_lowercases)
    for raw in full_lines:
        surface_tokens = split_by(strip_cpp(raw.rstrip("\n\r")), " ")
        trie.mark_as_filtered(surface_tokens, no_lower_for_kb)


def clean_stopwords(trie: KBTrie, stopword_lines: list[str]) -> None:
    """src/annotation.h:220-233 — remove lower/UPPER/Capitalized unigrams."""
    for raw in stopword_lines:
        token = strip_cpp(raw.rstrip("\n\r"))
        if not token:
            continue
        trie.stopword_set.add(to_lower_ascii(token))
        trie.remove([to_lower_ascii(token)])
        trie.remove([to_upper_ascii(token)])
        trie.remove([to_upper_ascii(token[0]) + token[1:]])


def build_trie(
    core_lines: list[str],
    full_lines: list[str],
    stopword_lines: list[str],
) -> KBTrie:
    """src/annotation.h:235-243 — KB load first, stopword cleanup second."""
    trie = KBTrie()
    load_kb(trie, core_lines, full_lines)
    clean_stopwords(trie, stopword_lines)
    return trie


def segment_dp(
    trie: KBTrie, tokens: list[str], weight: float = 1.0
) -> list[tuple[int, int, str]]:
    """src/string_match.h:21-89 — weighted interval scheduling over a sentence.

    Returns segments ``(l, r, type_str)`` tiling ``[0, len(tokens))``;
    ``type_str`` is the comma-joined sorted type set ("" for skip segments).
    Score: core match = len²; full-dict (FILTERED) match = weight·len²;
    skip = 0. Strict ``<``/``>`` comparisons reproduce the reference's
    tie-breaking (earliest-computed candidate wins). Matching never crosses
    the "\\n" sentinel (src/string_match.h:35-37).
    """
    n = len(tokens)
    NEG = float("-inf")
    f = [NEG] * (n + 1)
    f[0] = 0.0
    tb_i = [0] * (n + 1)
    tb_types: list[frozenset[str] | None] = [None] * (n + 1)
    nodes = trie.nodes
    root_children = nodes[0].children
    for i in range(n):
        if f[i] > f[i + 1]:
            f[i + 1] = f[i]
            tb_i[i + 1] = i
            tb_types[i + 1] = None
        tok = tokens[i]
        if tok == "\n":
            continue
        u = root_children.get(tok, -1)
        if u == -1:
            continue
        fi = f[i]
        delta = 0
        j = i
        while j < n:
            t = tokens[j]
            if t == "\n":
                break
            if j > i:
                u = nodes[u].children.get(t, -1)
                if u == -1:
                    break
            delta += 1
            types = nodes[u].types
            if types:
                if FILTERED_TYPE not in types:  # entity (core dict)
                    score = fi + delta * delta
                    if f[j + 1] < score:
                        f[j + 1] = score
                        tb_i[j + 1] = i
                        tb_types[j + 1] = frozenset(types)
                elif len(types) == 1:  # filtered (full dict only)
                    score = fi + weight * delta * delta
                    if f[j + 1] < score:
                        f[j + 1] = score
                        tb_i[j + 1] = i
                        tb_types[j + 1] = frozenset(types)
            j += 1
    out: list[tuple[int, int, str]] = []
    j = n
    while j > 0:
        i = tb_i[j]
        ts = tb_types[j]
        out.append((i, j, ",".join(sorted(ts)) if ts else ""))
        j = i
    out.reverse()
    return out


# -- batch kernel --------------------------------------------------------------

NO_MATCH, ENTITY, FILTERED = 0, 1, 2  # CompiledTrie.cls values


@dataclass(frozen=True)
class CompiledTrie:
    """Array form of a :class:`KBTrie`, read by :func:`segment_batch`.

    Transitions are stored per edge (sorted ``node * n_vocab + token id``
    keys searched with ``np.searchsorted``), never as a dense node × vocab
    table. Every node is exactly one token path from the root, so its
    surface and canonical form are per-node constants.
    """

    vocab: pa.Array  # edge-label tokens; position = token id
    keys: np.ndarray  # int64, sorted: parent * n_vocab + token id
    child: np.ndarray  # int64 child node of each key
    root: np.ndarray  # child of the root per token id, then -1 for id -1
    has_child: np.ndarray  # bool per node
    cls: np.ndarray  # int8 per node: NO_MATCH / ENTITY / FILTERED
    type_str: pa.Array  # per node: comma-joined sorted type set
    surface: pa.Array  # per node: path tokens joined by " "
    canon_rank: np.ndarray  # int64 per node: rank of its canon in `canons`
    canons: pa.Array  # distinct canonical surfaces, sorted

    def child_of(self, node: np.ndarray, tok: np.ndarray) -> np.ndarray:
        """Child of each ``node`` along token id ``tok``; -1 where none
        (including ``tok == -1``)."""
        out = np.full(len(node), -1, np.int64)
        q = node * len(self.vocab) + tok
        i = np.minimum(np.searchsorted(self.keys, q), len(self.keys) - 1)
        hit = (tok >= 0) & (self.keys[i] == q)
        out[hit] = self.child[i[hit]]
        return out


def compile_trie(trie: KBTrie) -> CompiledTrie:
    """Compile ``trie`` into the arrays :func:`segment_batch` walks.

    Edges labelled "\\n" are left out: matching never crosses the
    sentinel, so "\\n" always means "no child"."""
    nodes = trie.nodes
    vocab = sorted({t for n in nodes for t in n.children if t != "\n"})
    tok_id = {t: i for i, t in enumerate(vocab)}
    paths: list[tuple[str, ...]] = [()] * len(nodes)
    parent, tok_ids, child = [], [], []
    # a child is always appended after its parent, so one pass in id
    # order sees every parent path before its children
    for u, node in enumerate(nodes):
        for tok, v in node.children.items():
            paths[v] = paths[u] + (tok,)
            if tok != "\n":
                parent.append(u)
                tok_ids.append(tok_id[tok])
                child.append(v)
    parent, tok_ids, child = (
        np.asarray(a, np.int64) for a in (parent, tok_ids, child)
    )
    keys = parent * len(vocab) + tok_ids
    order = np.argsort(keys)
    root = np.full(len(vocab) + 1, -1, np.int64)
    root[tok_ids[parent == 0]] = child[parent == 0]
    has_child = np.zeros(len(nodes), bool)
    has_child[parent] = True
    cls = [
        NO_MATCH if not n.types
        else ENTITY if FILTERED_TYPE not in n.types
        else FILTERED if len(n.types) == 1
        else NO_MATCH
        for n in nodes
    ]
    surfaces = [" ".join(p) for p in paths]
    canon = [normalize_surface(s) for s in surfaces]
    canons = sorted(set(canon))
    rank = {c: i for i, c in enumerate(canons)}
    return CompiledTrie(
        vocab=pa.array(vocab, pa.string()),
        keys=keys[order],
        child=child[order],
        root=root,
        has_child=has_child,
        cls=np.asarray(cls, np.int8),
        type_str=pa.array([",".join(sorted(n.types)) for n in nodes]),
        surface=pa.array(surfaces, pa.string()),
        canon_rank=np.asarray([rank[c] for c in canon], np.int64),
        canons=pa.array(canons, pa.string()),
    )


def list_offsets(tokens: pa.Array) -> np.ndarray:
    """Sentence start offsets (length S + 1) into ``pc.list_flatten``
    of a list array; null lists count as empty."""
    lens = pc.list_value_length(tokens).fill_null(0)
    off = np.zeros(len(tokens) + 1, np.int64)
    np.cumsum(lens.to_numpy(zero_copy_only=False), out=off[1:])
    return off


def segment_batch(
    ct: CompiledTrie, tokens: pa.Array, weight: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`segment_dp` for every sentence of a ``list<string>`` array.

    Returns the segment tiling of all sentences as flat arrays
    ``(sent_idx, l, r, node)`` ordered by sentence then ``l``; ``node`` is
    the matched trie node, or -1 for a one-token skip segment. Segment
    types are ``ct.type_str[node]`` ("" for skips).

    Three steps:

    1. Candidate spans: tokens map to ids with ``pc.index_in``, then at
       most trie-depth vectorized passes walk the trie from every
       position at once. A span whose node is an entity or a filtered
       phrase is a candidate scored like the reference: ``len²`` or
       ``weight·len²``.
    2. The DP: ``f`` is only written at candidate ends (elsewhere the
       skip transition copies the value to its left), so the recurrence
       runs over each sentence's distinct candidate ends in order, one
       vectorized step per end rank across the whole batch. Each end
       takes the first maximal option in the reference's update order —
       candidates by increasing start, the skip from ``e - 1``, then the
       one-token candidate from ``e - 1`` — which reproduces its strict
       ``<``/``>`` tie-breaks.
    3. Traceback from each sentence end through the ends won by a
       candidate, vectorized across sentences; uncovered tokens become
       skip segments.
    """
    off = list_offsets(tokens)
    n_sent, n_tok = len(off) - 1, int(off[-1])
    ids = (
        pc.index_in(pc.list_flatten(tokens), value_set=ct.vocab)
        .fill_null(-1)
        .to_numpy()
    )
    sent_of = np.repeat(np.arange(n_sent), np.diff(off))
    sent_end = off[1:][sent_of]

    # 1. candidates: (flat start, length, node)
    c_pos, c_len, c_node = [], [], []
    node = ct.root[ids]
    pos = np.flatnonzero(node >= 0)
    node = node[pos]
    depth = 1
    while len(pos):
        m = ct.cls[node] != NO_MATCH
        c_pos.append(pos[m])
        c_node.append(node[m])
        c_len.append(np.full(int(m.sum()), depth, np.int64))
        more = ct.has_child[node] & (pos + depth < sent_end[pos])
        pos, node = pos[more], node[more]
        node = ct.child_of(node, ids[pos + depth])
        hit = node >= 0
        pos, node = pos[hit], node[hit]
        depth += 1
    c_pos = np.concatenate(c_pos) if c_pos else np.zeros(0, np.int64)
    c_len = np.concatenate(c_len) if c_len else np.zeros(0, np.int64)
    c_node = np.concatenate(c_node) if c_node else np.zeros(0, np.int64)
    length = c_len.astype(np.float64)
    c_score = np.where(
        ct.cls[c_node] == ENTITY, length * length, weight * length * length
    )
    c_end = c_pos + c_len

    # 2. DP over distinct candidate ends (flat positions, unique per
    # sentence because every end is >= its sentence start + 1)
    ends, c_group = np.unique(c_end, return_inverse=True)
    n_end = len(ends)
    end_sent = sent_of[ends - 1]
    new_sent = np.ones(n_end, bool)
    new_sent[1:] = end_sent[1:] != end_sent[:-1]
    first = np.maximum.accumulate(np.where(new_sent, np.arange(n_end), 0))
    end_rank = np.arange(n_end) - first
    # options: every candidate, plus one skip (e - 1 -> e) per end,
    # ordered by end rank, then end, then the reference's update order
    # within an end: by source position, the skip before the one-token
    # candidate from the same position
    n_cand = len(c_pos)
    o_group = np.concatenate([c_group, np.arange(n_end)])
    o_src = np.concatenate([c_pos, ends - 1])
    o_score = np.concatenate([c_score, np.zeros(n_end)])
    o_node = np.concatenate([c_node, np.full(n_end, -1, np.int64)])
    # f at a source position = f at the last end at or before it in the
    # sentence, or 0 (slot n_end of f_end)
    src_end = np.concatenate(
        [
            np.searchsorted(ends, c_pos, side="right") - 1,
            np.where(new_sent, -1, np.arange(n_end) - 1),
        ]
    )
    same = src_end >= 0
    same[same] = end_sent[src_end[same]] == end_sent[o_group[same]]
    src_end[~same] = n_end
    # both sort keys are unique, so the (faster) unstable sort is exact
    n_opt = n_cand + n_end
    is_cand = np.arange(n_opt) < n_cand
    perm = np.argsort(2 * (ends[o_group] * (n_tok + 1) + o_src) + is_cand)
    perm = perm[np.argsort(end_rank[o_group[perm]] * n_opt + np.arange(n_opt))]
    o_group, o_src, o_score, o_node, src_end = (
        a[perm] for a in (o_group, o_src, o_score, o_node, src_end)
    )
    f_end = np.zeros(n_end + 1)
    win = np.zeros(n_end, np.int64)
    bounds = np.searchsorted(
        end_rank[o_group], np.arange(int(end_rank.max(initial=-1)) + 2)
    )
    for a, b in zip(bounds[:-1], bounds[1:]):
        grp = o_group[a:b]
        val = f_end[src_end[a:b]] + o_score[a:b]
        head = np.ones(b - a, bool)
        head[1:] = grp[1:] != grp[:-1]
        best = np.maximum.reduceat(val, np.flatnonzero(head))
        idx = np.flatnonzero(val == best[np.cumsum(head) - 1])
        firsts = idx[np.r_[True, grp[idx[1:]] != grp[idx[:-1]]]]
        f_end[grp[firsts]] = val[firsts]
        win[grp[firsts]] = a + firsts

    # 3. traceback: from each sentence end, the last end won by a
    # candidate, then the last such end at or before that candidate's
    # start, and so on
    won = np.flatnonzero(o_node[win] >= 0)
    won_end, won_sent = ends[won], end_sent[won]
    won_src, won_node = o_src[win[won]], o_node[win[won]]

    def last_won(pos, sent):
        j = np.searchsorted(won_end, pos, side="right") - 1
        ok = j >= 0
        ok[ok] = won_sent[j[ok]] == sent[ok]
        return np.where(ok, j, -1)

    prev = last_won(won_src, won_sent)
    j = last_won(off[1:], np.arange(n_sent))
    chosen = []
    while len(j := j[j >= 0]):
        chosen.append(j)
        j = prev[j]

    # the tiling: chosen candidates plus one skip segment per uncovered
    # token, keyed by flat start position (unique, already in order)
    seg_node = np.full(n_tok, -1, np.int64)
    seg_len = np.ones(n_tok, np.int64)
    head = np.ones(n_tok, bool)
    if chosen:
        chosen = np.concatenate(chosen)
        m_start, m_end = won_src[chosen], won_end[chosen]
        cover = np.zeros(n_tok + 1, np.int64)
        cover[m_start] += 1
        cover[m_end] -= 1
        head[np.cumsum(cover[:-1]) > 0] = False
        head[m_start] = True
        seg_node[m_start] = won_node[chosen]
        seg_len[m_start] = m_end - m_start
    start = np.flatnonzero(head)
    sent = sent_of[start]
    left = start - off[sent]
    return sent, left, left + seg_len[start], seg_node[start]
