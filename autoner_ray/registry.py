"""The SURVEY §2.9 stage registry — the promised user-extension
surface made real: every batch stage is a NAMED entry with the uniform
``(pa.Table) -> pa.Table`` contract, and a pipeline is a plain config
list of names (plus per-stage options) compiled onto a
``ray.data.Dataset`` as a chain of ``map_batches`` calls. User stages
slot in by registering under a new name — nothing else in the engine
needs to know about them.

Reference anchor: AutoNER's extension points are flag-dispatched maps
(``--rnn_unit`` unit map ``train_partial_ner.py:52`` / basic.py:33,
the optimizer map ``train_partial_ner.py:89``, alternative sinks);
this registry is the engine-wide generalization of that pattern.

Two stage kinds, mirroring the engine's two execution shapes:

- ``kind="map"`` — a stateless function; compiled to a task-pool
  ``map_batches(fn)``. Options in the config entry are bound as
  keyword arguments (``functools.partial``).
- ``kind="actor"`` — a callable CLASS whose ``__init__`` does the
  once-per-worker setup (trie build, profile matrix, model load) and
  whose ``__call__`` takes the batch; compiled to an actor-pool
  ``map_batches(cls, concurrency=..., batch_size=...)``. Constructor
  options come from the config entry.

Example::

    from autoner_ray.registry import build_pipeline
    ds = ray.data.read_parquet(".../documents.parquet")
    out = build_pipeline(ds, [
        "quality_features",          # bare name
        {"stage": "lang_id"},        # dict form, options allowed
    ])

Registering a user stage::

    @register_stage("my_stage", kind="map",
                    description="what it computes")
    def my_stage(batch: pa.Table) -> pa.Table: ...
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class StageSpec:
    """One registry row: the callable plus how to schedule it."""

    name: str
    fn: Callable
    kind: str = "map"  # "map" (task pool) | "actor" (actor pool)
    description: str = ""
    # actor-pool scheduling defaults (overridable per config entry)
    concurrency: int = 2
    batch_size: int | None = None
    ray_opts: dict = field(default_factory=dict)


_REGISTRY: dict[str, StageSpec] = {}


def register_stage(name: str, kind: str = "map", description: str = "",
                   concurrency: int = 2, batch_size: int | None = None,
                   **ray_opts):
    """Decorator registering a stage under ``name``. Re-registering an
    existing name raises — user stages must pick fresh names (shadowing
    a core stage silently would be a debugging trap)."""

    def deco(fn):
        _ensure_core()
        if name in _REGISTRY:
            raise ValueError(f"stage {name!r} already registered")
        _REGISTRY[name] = StageSpec(
            name=name, fn=fn, kind=kind, description=description,
            concurrency=concurrency, batch_size=batch_size,
            ray_opts=dict(ray_opts),
        )
        return fn

    return deco


def get_stage(name: str) -> StageSpec:
    _ensure_core()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown stage {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def list_stages() -> dict[str, str]:
    """name -> description for every registered stage."""
    _ensure_core()
    return {s.name: s.description for s in _REGISTRY.values()}


def build_pipeline(ds, config):
    """Compile a config list onto ``ds``. Each entry is a stage name or
    ``{"stage": name, <option>: value, ...}``; options bind to the
    stage callable (map: kwargs via partial; actor: constructor
    kwargs) except the scheduling keys ``concurrency`` / ``batch_size``
    which override the spec's actor-pool defaults."""
    for entry in config:
        if isinstance(entry, str):
            entry = {"stage": entry}
        entry = dict(entry)
        spec = get_stage(entry.pop("stage"))
        concurrency = entry.pop("concurrency", spec.concurrency)
        batch_size = entry.pop("batch_size", spec.batch_size)
        kw = dict(spec.ray_opts)
        if batch_size is not None:
            kw["batch_size"] = batch_size
        if spec.kind == "actor":
            ds = ds.map_batches(
                spec.fn, batch_format="pyarrow",
                concurrency=concurrency,
                fn_constructor_kwargs=entry or None, **kw,
            )
        else:
            fn = functools.partial(spec.fn, **entry) if entry else spec.fn
            ds = ds.map_batches(fn, batch_format="pyarrow", **kw)
    return ds


_CORE_LOADED = False


def _ensure_core() -> None:
    """Register the engine's core stages lazily (import cycles: the
    stage modules import freely; only the registry import is
    deferred)."""
    global _CORE_LOADED
    if _CORE_LOADED:
        return

    from autoner_ray.sources.pages import derive_pages_batch
    from autoner_ray.stages.analysis import lang_id_batch, quality_batch
    from autoner_ray.stages.dedup import simhash_batch
    from autoner_ray.stages.extract import extract_text_batch
    from autoner_ray.stages.tokenize import tokenize_pages_batch

    core = [
        ("derive_pages", derive_pages_batch, "map",
         "documents -> Common-Crawl-shaped page rows "
         "(url, warc_ts, html, text, lang)"),
        ("extract_text", extract_text_batch, "map",
         "byte-identical text per url from the html/text columns"),
        ("tokenize_pages", tokenize_pages_batch, "map",
         "reference simpleTokenize over extracted text -> sentences"),
        ("quality_features", quality_batch, "map",
         "doc_id + n_words/stop_ratio/mean_word_len quality features"),
        ("lang_id", lang_id_batch, "map",
         "n-gram language-ID scores (per-worker profile singleton)"),
        ("simhash", simhash_batch, "map",
         "64-bit SimHash per doc (doc_id, simhash as int64)"),
    ]
    for name, fn, kind, desc in core:
        if name not in _REGISTRY:
            _REGISTRY[name] = StageSpec(
                name=name, fn=fn, kind=kind, description=desc
            )
    # latch only AFTER the imports succeed — a transient ImportError
    # must surface again on the next call, not leave a permanently
    # empty registry with misleading "unknown stage" errors
    _CORE_LOADED = True
