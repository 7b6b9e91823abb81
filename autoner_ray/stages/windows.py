"""Event-stream windowed operators (engine extensions over ``events``).

Ray Data has no event-time windows; these follow the guide's shape —
``groupby(key).map_groups`` with the window logic over the ts-sorted group
(ordering assumption: per-key, within-group sort; rows across keys are
unordered). Results are pure functions of (key, ts multiset) so output is
execution-order independent.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _value_cents(batch: pa.Table) -> pa.Table:
    """``value`` (2-dp double) as exact int64 cents so distributed partial
    sums are order-independent and match the sequential oracle
    (oracle twin: ``CAST(floor(value*100 + 0.5) AS BIGINT)``)."""
    import numpy as np

    v = batch["value"].to_numpy(zero_copy_only=False)
    cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
    return batch.append_column("value_cents", pa.array(cents, pa.int64()))


def _cents_col_to_value(t: pa.Table, out: str = "sum_value") -> pa.Table:
    dollars = pc.divide(pc.cast(t["cents"], pa.float64()), pa.scalar(100.0))
    return t.drop_columns(["cents"]).append_column(out, dollars)


def hourly_counts(events_ds):
    """(event_type, hour) -> n, sum_value. Tumbling hour via floor_temporal.

    Key cardinality is |event types| × |hours in the corpus time span|
    (~10⁵–10⁶ for years of web data) — bounded, so the tail is the
    shuffle-free two-level combine over per-batch arrow hash partials
    rather than a sort-shuffle of the full event stream."""
    from autoner_ray.stages.combine import bounded_key_sum

    def hour_partial(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch["ts"], unit="hour")
        t = _value_cents(batch.append_column("hour", hour))
        agg = (
            t.select(["event_type", "hour", "value_cents"])
            .group_by(["event_type", "hour"])
            .aggregate([("value_cents", "count"), ("value_cents", "sum")])
        )
        return agg.rename_columns(["event_type", "hour", "n", "cents"])

    agg = bounded_key_sum(
        events_ds.map_batches(
            hour_partial, batch_format="pyarrow", batch_size=65536
        ),
        ["event_type", "hour"], ["n", "cents"],
    )
    return agg.map_batches(_cents_col_to_value, batch_format="pyarrow")


def user_stats(events_ds):
    """Per-user event stats. count/sum/min/max all re-associate, so a
    per-batch arrow hash partial shrinks the shuffle input to
    ≤ |users-in-batch| rows per batch — the event stream itself never
    sort-shuffles; only the pre-combined partials do."""
    from ray.data.aggregate import Max, Min, Sum

    def user_partial(batch: pa.Table) -> pa.Table:
        t = _value_cents(batch)
        agg = (
            t.select(["user_id", "value_cents", "ts"])
            .group_by("user_id")
            .aggregate(
                [
                    ("value_cents", "count"),
                    ("value_cents", "sum"),
                    ("ts", "min"),
                    ("ts", "max"),
                ]
            )
        )
        return agg.rename_columns(
            ["user_id", "n_events", "cents", "first_ts", "last_ts"]
        )

    agg = (
        events_ds.map_batches(
            user_partial, batch_format="pyarrow", batch_size=65536
        )
        .groupby("user_id")
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("cents", alias_name="cents"),
            Min("first_ts", alias_name="first_ts"),
            Max("last_ts", alias_name="last_ts"),
        )
    )
    return agg.map_batches(_cents_col_to_value, batch_format="pyarrow")


def sessionize(events_ds, gap_minutes: int = 30):
    """Session windows per user: a new session starts when the gap to the
    previous event exceeds ``gap_minutes``. Output one row per session:
    (user_id, session_id [1-based per user in ts order], n_events,
    start_ts, end_ts).
    """
    gap = pd.Timedelta(minutes=gap_minutes)

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        diffs = df["ts"].diff()
        sess_id = ((diffs > gap) | diffs.isna()).cumsum()
        g = df.groupby(sess_id)
        return pd.DataFrame(
            {
                "user_id": df["user_id"].iloc[0],
                "session_id": list(range(1, int(sess_id.max()) + 1)),
                "n_events": g.size().values,
                # timestamp[us] to match the events source schema (pandas
                # .values defaults to datetime64[ns], which hash-mismatches
                # the driver's us-resolution oracle even when values agree)
                "start_ts": g["ts"].min().values.astype("datetime64[us]"),
                "end_ts": g["ts"].max().values.astype("datetime64[us]"),
            }
        )

    return events_ds.groupby("user_id").map_groups(
        per_user, batch_format="pandas"
    )


def sliding_hourly(events_ds, window_hours: int = 1, slide_minutes: int = 15):
    """Sliding event-time window: each event lands in
    ``window_hours*60/slide_minutes`` overlapping windows; window_start is
    the slide-aligned bucket. Explode-then-aggregate: the per-batch
    explode emits (window_start, event_type) partials so the shuffle
    moves pre-counted rows, not events x windows.
    """
    from ray.data.aggregate import Sum

    import numpy as np

    n_slides = (window_hours * 60) // slide_minutes
    slide_us = slide_minutes * 60 * 1_000_000

    def explode(batch: pa.Table) -> pa.Table:
        import pandas as pd

        ts = batch["ts"].cast(pa.int64()).to_numpy()  # us since epoch
        etype = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        cents = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        base = (ts // slide_us) * slide_us  # slide-aligned bucket of event
        # each event lands in n_slides windows; materialize the
        # (n_slides × rows) expansion vectorized and pre-combine with a
        # pandas groupby — no per-row python loop
        starts = (
            base[None, :]
            - (np.arange(n_slides, dtype=np.int64) * slide_us)[:, None]
        ).ravel()
        g = (
            pd.DataFrame(
                {
                    "event_type": np.tile(etype, n_slides),
                    "window_start": starts,
                    "cents": np.tile(cents, n_slides),
                }
            )
            .groupby(["event_type", "window_start"], as_index=False,
                     sort=False)
            .agg(n=("cents", "size"), cents=("cents", "sum"))
        )
        return pa.table(
            {
                "event_type": pa.array(g["event_type"], pa.string()),
                "window_start": pa.array(
                    g["window_start"].to_numpy(), pa.timestamp("us")
                ),
                "n": pa.array(g["n"].to_numpy(), pa.int64()),
                "cents": pa.array(g["cents"].to_numpy(), pa.int64()),
            }
        )

    agg = (
        events_ds.map_batches(explode, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(Sum("n", alias_name="n"), Sum("cents", alias_name="cents"))
    )
    return agg.map_batches(_cents_col_to_value, batch_format="pyarrow")


def user_running_totals(events_ds):
    """Per-user running (cumulative) event count and value sum in event
    time — lag/lead-family window function via the sessionize shape:
    ``groupby(user).map_groups`` over the ts-sorted group. Output one row
    per event: (user_id, event_id, ts, running_n, running_cents/100)."""
    import numpy as np

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        cents = np.floor(
            df["value"].to_numpy(dtype=float) * 100.0 + 0.5
        ).astype("int64")
        return pd.DataFrame(
            {
                "user_id": df["user_id"].values,
                "event_id": df["event_id"].values,
                "ts": df["ts"].values,
                "running_n": np.arange(1, len(df) + 1, dtype="int64"),
                "running_value": cents.cumsum() / 100.0,
            }
        )

    return events_ds.groupby("user_id").map_groups(
        per_user, batch_format="pandas"
    )


def hourly_distinct_users(events_ds):
    """COUNT(DISTINCT user_id) per event-time hour.

    Scale shape: per-batch distinct (hour, user) partials -> USER-
    partitioned distinct combine (splitmix64 int path; an hour's user
    set never lands in one block — hour-partitioning would hot-spot on
    busy hours) -> per-batch hour count partials -> bounded hour
    combine. Exact distinct without a corpus shuffle or per-hour sets.
    """
    import pyarrow.compute as pc

    from autoner_ray.stages.combine import (
        bounded_key_sum,
        partitioned_key_sum,
    )

    def hour_user_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "hour": pa.array([], pa.timestamp("us")),
                    "user_id": pa.array([], pa.int64()),
                    "one": pa.array([], pa.int64()),
                }
            )
        hour = pc.floor_temporal(
            t["ts"].combine_chunks(), unit="hour"
        )
        agg = (
            pa.table({"hour": hour, "user_id": t["user_id"]})
            .group_by(["hour", "user_id"])
            .aggregate([])
        )
        import numpy as np

        return agg.append_column(
            "one", pa.array(np.ones(len(agg), np.int64))
        )

    distinct = partitioned_key_sum(
        events_ds.map_batches(hour_user_partial, batch_format="pyarrow"),
        ["hour", "user_id"], ["one"], part_on=("user_id",),
    )

    def count_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "hour": pa.array([], pa.timestamp("us")),
                    "users": pa.array([], pa.int64()),
                }
            )
        agg = t.group_by("hour").aggregate([("one", "count")])
        return agg.rename_columns(["hour", "users"])

    return bounded_key_sum(
        distinct.map_batches(count_partial, batch_format="pyarrow"),
        ["hour"], ["users"],
    )


def user_value_deltas(events_ds):
    """LAG-family window: per-user event-time value delta
    ``value - LAG(value)`` with the deterministic (ts, event_id) order;
    first event per user emits no row (no predecessor). Raw-double
    subtraction of the same two parquet values both sides — IEEE-exact,
    no rounding needed. Same hash-partition-by-user shape as
    ``user_running_totals``; no global sort."""

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        v = df["value"].to_numpy(dtype=float)
        out = pd.DataFrame(
            {
                "user_id": df["user_id"].values[1:],
                "event_id": df["event_id"].values[1:],
                "ts": df["ts"].values[1:],
                "value": v[1:],
                "delta": v[1:] - v[:-1],
            }
        )
        return out

    return events_ds.groupby("user_id").map_groups(
        per_user, batch_format="pandas"
    )


def funnel_counts(
    events_ds,
    steps: tuple[str, ...] = ("view", "click", "purchase"),
    num_partitions: int | None = None,
):
    """Ordered-funnel completion: for each prefix of ``steps``, how many
    users performed those event types in strict temporal order — the
    earliest ``steps[0]``, then the earliest ``steps[1]`` STRICTLY after
    it, and so on. Output one row per funnel depth:
    (depth [1-based], step, users).

    Shape: filter to funnel event types and project 3 columns BEFORE
    the shuffle (the funnel never needs the rest of the stream), ONE
    hash shuffle on user_id, then a vectorized per-partition chain of
    K-1 groupby-min merges — no per-user Python. Each user lives in
    exactly one partition, so per-partition depth counts are final
    partials; the tail is a K-row combine on the driver-side groupby.
    """
    import numpy as np

    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.joins import _stable_part_col

    P = num_partitions or default_num_partitions()
    steps = tuple(steps)
    step_set = list(steps)

    def pre(t: pa.Table) -> pa.Table:
        t = t.select(["user_id", "ts", "event_type"])
        mask = pc.is_in(t["event_type"], value_set=pa.array(step_set))
        t = t.filter(mask)
        return t.append_column(
            "__part", _stable_part_col(t, ("user_id",), P)
        )

    out_schema = pa.schema(
        [("depth", pa.int64()), ("step", pa.string()),
         ("users", pa.int64())]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "depth": pd.Series([], dtype="int64"),
                "step": pd.Series([], dtype="object"),
                "users": pd.Series([], dtype="int64"),
            }
        )
        if len(df) == 0 or "event_type" not in df.columns:
            return empty
        counts = np.zeros(len(steps), dtype=np.int64)
        cur = (
            df.loc[df["event_type"] == steps[0], ["user_id", "ts"]]
            .groupby("user_id", as_index=False)["ts"]
            .min()
        )
        counts[0] = len(cur)
        for k in range(1, len(steps)):
            if cur.empty:
                break
            e = df.loc[df["event_type"] == steps[k], ["user_id", "ts"]]
            m = e.merge(
                cur.rename(columns={"ts": "prev_ts"}),
                on="user_id", how="inner",
            )
            m = m.loc[m["ts"] > m["prev_ts"], ["user_id", "ts"]]
            cur = m.groupby("user_id", as_index=False)["ts"].min()
            counts[k] = len(cur)
        return pd.DataFrame(
            {
                "depth": np.arange(1, len(steps) + 1, dtype="int64"),
                "step": list(steps),
                "users": counts,
            }
        )

    partials = (
        events_ds.map_batches(pre, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(partial, batch_format="pandas")
    )

    def combine(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return out_schema.empty_table()
        agg = (
            t.group_by(["depth", "step"]).aggregate([("users", "sum")])
        )
        return agg.rename_columns(["depth", "step", "users"]).cast(
            out_schema
        )

    # K*P partial rows -> one tiny block; repartition(1) keeps the
    # combine a single task without materializing anything big
    return partials.repartition(1).map_batches(
        combine, batch_format="pyarrow"
    )


def retention_cohorts(events_ds, num_partitions: int | None = None):
    """Cohort retention table: cohort = a user's first-ever event DAY;
    output (cohort_day, day_offset, users) = how many cohort members
    were active exactly ``day_offset`` days after their first day
    (offset 0 row = cohort size).

    Shape: project (user_id, ts) pre-shuffle, ONE user-hash shuffle,
    per-partition vectorized pandas (distinct user-days, per-user min,
    one merge) — each user lives in exactly one partition so the
    (cohort_day, offset) partials are exact; the key set is bounded by
    |days in corpus|^2, so the tail is a single-block combine.
    """
    import numpy as np

    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.joins import _stable_part_col

    P = num_partitions or default_num_partitions()

    def pre(t: pa.Table) -> pa.Table:
        t = t.select(["user_id", "ts"])
        return t.append_column(
            "__part", _stable_part_col(t, ("user_id",), P)
        )

    out_schema = pa.schema(
        [("cohort_day", pa.date32()), ("day_offset", pa.int64()),
         ("users", pa.int64())]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "cohort_day": pd.Series([], dtype="datetime64[us]"),
                "day_offset": pd.Series([], dtype="int64"),
                "users": pd.Series([], dtype="int64"),
            }
        )
        if len(df) == 0 or "ts" not in df.columns:
            return empty
        ud = pd.DataFrame(
            {
                "user_id": df["user_id"],
                "day": df["ts"].dt.normalize(),
            }
        ).drop_duplicates()
        first = ud.groupby("user_id", as_index=False)["day"].min()
        m = ud.merge(
            first.rename(columns={"day": "cohort_day"}), on="user_id"
        )
        m["day_offset"] = (
            (m["day"] - m["cohort_day"]).dt.days.astype("int64")
        )
        out = m.groupby(
            ["cohort_day", "day_offset"], as_index=False
        ).agg(users=("user_id", "size"))
        return out.astype({"day_offset": "int64", "users": "int64"})

    partials = (
        events_ds.map_batches(pre, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(partial, batch_format="pandas")
    )

    def combine(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return out_schema.empty_table()
        agg = (
            t.group_by(["cohort_day", "day_offset"])
            .aggregate([("users", "sum")])
            .rename_columns(["cohort_day", "day_offset", "users"])
        )
        return agg.set_column(
            0, "cohort_day", pc.cast(agg["cohort_day"], pa.date32())
        ).cast(out_schema)

    return partials.repartition(1).map_batches(
        combine, batch_format="pyarrow", batch_size=None
    )


def retention_cohorts_oracle_sql() -> str:
    return """
        WITH ud AS (
            SELECT DISTINCT user_id,
                   CAST(date_trunc('day', ts) AS DATE) AS day
            FROM events
        ),
        f AS (
            SELECT user_id, min(day) AS cohort_day FROM ud
            GROUP BY user_id
        )
        SELECT f.cohort_day,
               date_diff('day', f.cohort_day, ud.day) AS day_offset,
               count(*) AS users
        FROM ud JOIN f USING (user_id)
        GROUP BY 1, 2
    """


def value_quantiles_by_type(events_ds, ps=(0.25, 0.5, 0.75)):
    """EXACT per-group quantiles of ``value`` per event_type — grouped
    ``quantile_cont`` without shipping raw rows.

    Scale shape: per-batch (event_type, cents) value-count partials are
    the combiner — the one hash shuffle moves histogram rows (≤ distinct
    cents per type per batch), never the event stream; each group then
    merges its histogram and interpolates locally. Matches DuckDB
    ``quantile_cont`` bit-for-bit (same int-cents interpolation as
    ``relational.order_price_quantiles``). For unbounded-cardinality
    value domains at 100 TB the mergeable KLL sketch
    (``stages.sketches``) is the approximate alternative; this is the
    exact, oracle-checkable operator."""
    import numpy as np

    def hist_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "cents": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        t = _value_cents(t)
        agg = (
            t.select(["event_type", "value_cents"])
            .group_by(["event_type", "value_cents"])
            .aggregate([("value_cents", "count")])
        )
        return agg.rename_columns(["event_type", "cents", "n"])

    def group_quantiles(df: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        if len(df) == 0 or "event_type" not in df.columns:
            return pd.DataFrame(
                {
                    "event_type": pd.Series(dtype="object"),
                    "p": pd.Series(dtype="float64"),
                    "value_quantile": pd.Series(dtype="float64"),
                }
            )
        h = (
            df.groupby("cents", sort=True)["n"].sum().reset_index()
        )
        vals = h["cents"].to_numpy()
        cum = h["n"].to_numpy().cumsum()
        n = int(cum[-1])

        def value_at(idx: int) -> int:
            return int(vals[np.searchsorted(cum, idx + 1)])

        out_p, out_v = [], []
        for p in ps:
            pos = (n - 1) * p
            lo, hi = int(np.floor(pos)), int(np.ceil(pos))
            a, b = value_at(lo), value_at(hi)
            out_p.append(p)
            out_v.append(round((a + (b - a) * (pos - lo)) / 100.0, 6))
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[0],
                "p": out_p,
                "value_quantile": out_v,
            }
        )

    return (
        events_ds.map_batches(hist_partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(group_quantiles, batch_format="pandas")
    )


def hourly_ohlc(events_ds):
    """Per event-time hour OHLC: open/close are the values of the first/
    last event in deterministic (ts, event_id) order; high/low are the
    hour's max/min. The financial-bar aggregate the reference family
    has no primitive for — expressed as a MERGEABLE partial: each
    partial row carries the (ts, event_id, cents) witness triple for
    its open and close candidates, so merging two partials is "keep the
    witness with the smaller/larger (ts, event_id)" — associative and
    commutative, no global sort. Hour cardinality is bounded (~10⁴–10⁵
    for years of data), so the tail is the same shuffle-free two-level
    combine as ``hourly_counts``.
    """
    import numpy as np

    _EMPTY = {
        "hour": pd.Series(dtype="datetime64[us]"),
        "o_ts": pd.Series(dtype="datetime64[us]"),
        "o_eid": pd.Series(dtype="int64"),
        "o_cents": pd.Series(dtype="int64"),
        "c_ts": pd.Series(dtype="datetime64[us]"),
        "c_eid": pd.Series(dtype="int64"),
        "c_cents": pd.Series(dtype="int64"),
        "lo": pd.Series(dtype="int64"),
        "hi": pd.Series(dtype="int64"),
        "n": pd.Series(dtype="int64"),
    }

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "ts" not in df.columns:
            return pd.DataFrame(_EMPTY)
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        cents = np.floor(
            df["value"].to_numpy(dtype=float) * 100.0 + 0.5
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "hour": df["ts"].dt.floor("h"),
                "ts": df["ts"].values,
                "event_id": df["event_id"].values,
                "cents": cents,
            }
        )
        g = df.groupby("hour", sort=False)
        out = g.agg(
            o_ts=("ts", "first"),
            o_eid=("event_id", "first"),
            o_cents=("cents", "first"),
            c_ts=("ts", "last"),
            c_eid=("event_id", "last"),
            c_cents=("cents", "last"),
            lo=("cents", "min"),
            hi=("cents", "max"),
            n=("cents", "size"),
        ).reset_index()
        return out

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "hour" not in df.columns:
            return pd.DataFrame(_EMPTY)
        # open witness: min (o_ts, o_eid) per hour; close: max (c_ts, c_eid)
        df = df.sort_values(["o_ts", "o_eid"], kind="mergesort")
        opens = df.groupby("hour", sort=False)[
            ["o_ts", "o_eid", "o_cents"]
        ].first()
        df = df.sort_values(["c_ts", "c_eid"], kind="mergesort")
        g = df.groupby("hour", sort=False)
        closes = g[["c_ts", "c_eid", "c_cents"]].last()
        rest = g.agg(lo=("lo", "min"), hi=("hi", "max"), n=("n", "sum"))
        return opens.join([closes, rest]).reset_index()

    def finish(t: pa.Table) -> pa.Table:
        def dollars(col):
            return pc.divide(pc.cast(t[col], pa.float64()), pa.scalar(100.0))

        return pa.table(
            {
                "hour": t["hour"],
                "open_value": dollars("o_cents"),
                "high_value": dollars("hi"),
                "low_value": dollars("lo"),
                "close_value": dollars("c_cents"),
                "n": t["n"],
            }
        )

    return (
        events_ds.map_batches(pre, batch_format="pandas", batch_size=65536)
        .map_batches(merge, batch_format="pandas", batch_size=65536)
        .repartition(1)
        .map_batches(merge, batch_format="pandas", batch_size=None)
        .map_batches(finish, batch_format="pyarrow")
    )


def hourly_ohlc_oracle_sql() -> str:
    return """
        WITH e AS (
            SELECT date_trunc('hour', ts) AS hour, ts, event_id,
                   CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
            FROM events
        ), r AS (
            SELECT hour, cents,
                   row_number() OVER (
                       PARTITION BY hour ORDER BY ts, event_id
                   ) AS ra,
                   row_number() OVER (
                       PARTITION BY hour ORDER BY ts DESC, event_id DESC
                   ) AS rd
            FROM e
        )
        SELECT hour,
               MAX(CASE WHEN ra = 1 THEN cents END) / 100.0 AS open_value,
               MAX(cents) / 100.0 AS high_value,
               MIN(cents) / 100.0 AS low_value,
               MAX(CASE WHEN rd = 1 THEN cents END) / 100.0 AS close_value,
               COUNT(*) AS n
        FROM r GROUP BY hour
    """


def type_transitions(events_ds):
    """Per-user event-type Markov transitions: count of consecutive
    (prev_type -> event_type) pairs in deterministic (ts, event_id)
    order, summed over all users. LAG-family window over the
    hash-partition-by-user shape (no global sort); the transition
    matrix is |types|² — bounded — so the tail is the shuffle-free
    two-level combine."""
    from autoner_ray.stages.combine import bounded_key_sum

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) < 2:
            return pd.DataFrame(
                {
                    "prev_type": pd.Series(dtype="string"),
                    "event_type": pd.Series(dtype="string"),
                    "n": pd.Series(dtype="int64"),
                }
            )
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        tt = df["event_type"].to_numpy()
        out = pd.DataFrame({"prev_type": tt[:-1], "event_type": tt[1:]})
        out = out.groupby(
            ["prev_type", "event_type"], as_index=False, sort=False
        ).size()
        return out.rename(columns={"size": "n"})

    partials = events_ds.groupby("user_id").map_groups(
        per_user, batch_format="pandas"
    )
    return bounded_key_sum(partials, ["prev_type", "event_type"], ["n"])


def type_transitions_oracle_sql() -> str:
    return """
        WITH t AS (
            SELECT event_type,
                   lag(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                   ) AS prev_type
            FROM events
        )
        SELECT prev_type, event_type, COUNT(*) AS n
        FROM t WHERE prev_type IS NOT NULL
        GROUP BY prev_type, event_type
    """


def user_streaks(events_ds):
    """Gaps-and-islands: per user, the longest run of CONSECUTIVE
    calendar days with at least one event, plus the total count of
    active days — the classic engagement-streak window composition
    (DISTINCT day -> row_number -> day-minus-rank island -> max run).
    Same hash-partition-by-user shape as ``sessionize``; days per user
    are bounded (≤ corpus span), so groups stay small."""
    import numpy as np

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "ts" not in df.columns:
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype="int64"),
                    "longest_streak": pd.Series(dtype="int64"),
                    "n_active_days": pd.Series(dtype="int64"),
                }
            )
        days = np.unique(
            df["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
        )
        # island id: day - rank is constant within a consecutive run
        island = days - np.arange(len(days), dtype=np.int64)
        _, counts = np.unique(island, return_counts=True)
        return pd.DataFrame(
            {
                "user_id": [int(df["user_id"].iloc[0])],
                "longest_streak": [int(counts.max())],
                "n_active_days": [int(len(days))],
            }
        )

    return events_ds.groupby("user_id").map_groups(
        per_user, batch_format="pandas"
    )


def user_streaks_oracle_sql() -> str:
    return """
        WITH d AS (
            SELECT DISTINCT user_id,
                   CAST(date_trunc('day', ts) AS DATE) AS day
            FROM events
        ), r AS (
            SELECT user_id, day,
                   row_number() OVER (
                       PARTITION BY user_id ORDER BY day
                   ) AS rn
            FROM d
        ), g AS (
            SELECT user_id, COUNT(*) AS len
            FROM r GROUP BY user_id, day - CAST(rn AS INTEGER)
        )
        SELECT user_id,
               CAST(MAX(len) AS BIGINT) AS longest_streak,
               CAST(SUM(len) AS BIGINT) AS n_active_days
        FROM g GROUP BY user_id
    """


def seasonality_profile(events_ds):
    """Seasonality: (day-of-week, hour-of-day) event count and value
    sum across the whole span — the load/traffic heatmap profile.
    168 keys, so the tail is the shuffle-free two-level combine; dow
    follows DuckDB's Sunday=0 convention."""
    import numpy as np

    from autoner_ray.stages.combine import bounded_key_sum

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "dow": pa.array([], pa.int64()),
                    "hour_of_day": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "cents": pa.array([], pa.int64()),
                }
            )
        ts = t["ts"].combine_chunks()
        # arrow day_of_week: Monday=0 -> DuckDB dayofweek: Sunday=0
        dow_np = (
            pc.day_of_week(ts).to_numpy(zero_copy_only=False) + 1
        ) % 7
        dow = pa.array(dow_np, pa.int64())
        hod = pc.hour(ts)
        tt = _value_cents(t)
        agg = (
            pa.table(
                {
                    "dow": dow,
                    "hour_of_day": pc.cast(hod, pa.int64()),
                    "value_cents": tt["value_cents"],
                }
            )
            .group_by(["dow", "hour_of_day"])
            .aggregate([("value_cents", "count"), ("value_cents", "sum")])
        )
        return agg.rename_columns(["dow", "hour_of_day", "n", "cents"])

    agg = bounded_key_sum(
        events_ds.map_batches(
            partial, batch_format="pyarrow", batch_size=65536
        ),
        ["dow", "hour_of_day"], ["n", "cents"],
    )
    return agg.map_batches(_cents_col_to_value, batch_format="pyarrow")


def seasonality_profile_oracle_sql() -> str:
    return """
        SELECT dayofweek(ts) AS dow, hour(ts) AS hour_of_day,
               COUNT(*) AS n,
               SUM(CAST(floor(value*100 + 0.5) AS BIGINT)) / 100.0
                   AS sum_value
        FROM events GROUP BY 1, 2
    """


def new_users_daily(events_ds):
    """Daily new-user counts plus the cumulative adoption curve: each
    user's FIRST event day -> per-day counts -> running total (the
    GROUP BY -> window SUM composition over a first-seen reduce).

    Scale shape: per-batch (user, min-ts) partials -> USER-partitioned
    min combine (first-seen is re-associative; partitioning by user
    rather than day means a launch-day user spike can't hot-spot one
    partition) -> shuffle-free bounded day combine -> one tiny
    day-cardinality block for the running sum.
    """
    import numpy as np

    from autoner_ray.stages.combine import (
        bounded_key_sum,
        keyed_combine,
    )

    def first_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "first_us": pa.array([], pa.int64()),
                }
            )
        agg = (
            pa.table(
                {
                    "user_id": t["user_id"],
                    "first_us": pc.cast(
                        t["ts"].combine_chunks(), pa.int64()
                    ),
                }
            )
            .group_by("user_id")
            .aggregate([("first_us", "min")])
        )
        return agg.rename_columns(["user_id", "first_us"])

    first_seen = keyed_combine(
        events_ds.map_batches(
            first_partial, batch_format="pyarrow", batch_size=65536
        ),
        ["user_id"], [("first_us", "min")], part_on=("user_id",),
    )

    def day_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "day": pa.array([], pa.timestamp("us")),
                    "new_users": pa.array([], pa.int64()),
                }
            )
        day = pc.floor_temporal(
            pc.cast(t["first_us"].combine_chunks(), pa.timestamp("us")),
            unit="day",
        )
        agg = (
            pa.table({"day": day})
            .group_by("day")
            .aggregate([([], "count_all")])
        )
        return agg.rename_columns(["day", "new_users"])

    daily = bounded_key_sum(
        first_seen.map_batches(day_partial, batch_format="pyarrow"),
        ["day"], ["new_users"],
    )

    def running(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t["day"]))
        cum = np.cumsum(t["new_users"].to_numpy(zero_copy_only=False))
        return t.append_column(
            "cum_users", pa.array(cum, pa.int64())
        )

    # single block by construction after bounded_key_sum
    return daily.map_batches(
        running, batch_format="pyarrow", batch_size=None
    )


def new_users_daily_oracle_sql() -> str:
    return """
        WITH f AS (
            SELECT user_id, MIN(ts) AS first_ts FROM events GROUP BY 1
        ), c AS (
            SELECT date_trunc('day', first_ts) AS day,
                   COUNT(*) AS new_users
            FROM f GROUP BY 1
        )
        SELECT day, new_users,
               CAST(SUM(new_users) OVER (ORDER BY day) AS BIGINT)
                   AS cum_users
        FROM c
    """


def time_weighted_avg(events_ds):
    """Per-user TIME-WEIGHTED average value (trapezoidal integral over
    the user's event timeline), reported as an exact integer
    numerator/denominator pair: ``twa_num = Σ (c_i + c_{i+1})·Δt_us``
    (cents·µs, = 2× the trapezoid integral) and ``twa_den = 2·Σ Δt_us``
    — the consumer derives avg = num/den; keeping both integer makes
    the value-hash exact (no float summation-order hazard). Users with
    a single event have no interval and emit no row (LEAD-IS-NULL
    semantics, matching the SQL twin).

    Scale shape: same hash-partition-by-user shape as
    ``user_running_totals`` — per-user mergesort inside the partition,
    no global sort; int64 bounds hold to ~10⁶-cent values × multi-year
    spans (2.6·10¹² µs · 10⁵ ≈ 10¹⁷ « 2⁶³).
    """
    import numpy as np

    _schema = pd.DataFrame(
        {
            "user_id": pd.Series([], dtype="int64"),
            "twa_num": pd.Series([], dtype="int64"),
            "twa_den": pd.Series([], dtype="int64"),
        }
    )

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) < 2 or "ts" not in df.columns:
            return _schema
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        c = np.floor(
            df["value"].to_numpy(dtype=np.float64) * 100.0 + 0.5
        ).astype(np.int64)
        t = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        dt = t[1:] - t[:-1]
        num = int(((c[1:] + c[:-1]) * dt).sum())
        den = int(2 * dt.sum())
        return pd.DataFrame(
            {
                "user_id": df["user_id"].values[:1],
                "twa_num": np.array([num], np.int64),
                "twa_den": np.array([den], np.int64),
            }
        )

    return events_ds.groupby("user_id").map_groups(
        per_user, batch_format="pandas"
    )


def time_weighted_avg_oracle_sql() -> str:
    return """
        WITH e AS (
            SELECT user_id, ts, event_id,
                   CAST(floor(value*100 + 0.5) AS BIGINT) AS c,
                   LEAD(ts) OVER w AS nts,
                   LEAD(CAST(floor(value*100 + 0.5) AS BIGINT)) OVER w
                       AS nc
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        )
        SELECT user_id,
               CAST(SUM((c + nc)
                    * date_diff('microsecond', ts, nts)) AS BIGINT)
                   AS twa_num,
               CAST(2 * SUM(date_diff('microsecond', ts, nts)) AS BIGINT)
                   AS twa_den
        FROM e WHERE nts IS NOT NULL GROUP BY 1
    """


def gap_histogram(events_ds):
    """Histogram of per-user inter-event gaps in whole minutes (floor of
    the µs difference — NOT calendar-boundary counting) — the
    inter-arrival distribution that motivates the sessionize gap
    parameter. LEAD-IS-NULL semantics: a user's last event opens no gap.

    Scale shape: per-user-group gap extraction emits pre-aggregated
    (gap_minutes, n) partials; distinct gap values are span-bounded
    (≤ minutes in the corpus time span), so the tail is the shuffle-free
    bounded combine.
    """
    import numpy as np

    _schema = pd.DataFrame(
        {
            "gap_minutes": pd.Series([], dtype="int64"),
            "n": pd.Series([], dtype="int64"),
        }
    )

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) < 2 or "ts" not in df.columns:
            return _schema
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        t = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        gaps = (t[1:] - t[:-1]) // 60_000_000
        uniq, cnt = np.unique(gaps, return_counts=True)
        return pd.DataFrame(
            {
                "gap_minutes": uniq.astype(np.int64),
                "n": cnt.astype(np.int64),
            }
        )

    from autoner_ray.stages.combine import bounded_key_sum

    partials = events_ds.groupby("user_id").map_groups(
        per_user, batch_format="pandas"
    )
    return bounded_key_sum(partials, ["gap_minutes"], ["n"])


def gap_histogram_oracle_sql() -> str:
    return """
        WITH e AS (
            SELECT user_id, ts, LEAD(ts) OVER (
                PARTITION BY user_id ORDER BY ts, event_id
            ) AS nts
            FROM events
        )
        SELECT (epoch_us(nts) - epoch_us(ts)) // 60000000 AS gap_minutes,
               COUNT(*) AS n
        FROM e WHERE nts IS NOT NULL GROUP BY 1
    """


def hourly_anomalies(events_ds, k_num: int = 3, k_den: int = 2):
    """Hours whose event count deviates more than (k_num/k_den)·σ from
    their HOUR-OF-WEEK baseline — the seasonality-aware traffic-anomaly
    monitor (a Monday-9am spike is judged against other Monday-9ams,
    not the global mean).

    Hour-of-week is the calendar-free ``(epoch_hours mod 168)`` so the
    engine and the SQL twin can never disagree on week conventions.
    EXACT integer semantics (the ``length_outliers`` inequality):
    flag iff ``k_den²·(cnt·n − s)² > k_num²·(cnt·ssq − s²)`` over the
    per-hour-of-week count moments.

    Scale shape: one shuffle-free bounded combine of (hour -> n)
    partials — hour cardinality is corpus-span-bounded (~10⁵ for a
    decade), so the flagging pass runs on the driver's tiny hour
    table with arbitrary-precision ints; nothing event-sized moves.
    """
    import numpy as np

    from autoner_ray.stages.combine import bounded_key_sum

    def hour_partial(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or len(batch) == 0:
            return pa.table(
                {
                    "hour": pa.array([], pa.timestamp("us")),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        hour = pc.floor_temporal(batch["ts"], unit="hour")
        agg = (
            pa.table({"hour": hour})
            .group_by("hour")
            .aggregate([([], "count_all")])
        )
        return agg.rename_columns(["hour", "n_events"])

    hours = bounded_key_sum(
        events_ds.map_batches(
            hour_partial, batch_format="pyarrow", batch_size=65536
        ),
        ["hour"], ["n_events"],
    ).to_pandas()

    if len(hours) == 0:
        return pa.table(
            {
                "hour": pa.array([], pa.timestamp("us")),
                "n_events": pa.array([], pa.int64()),
            }
        )
    us = hours["hour"].astype("int64").to_numpy()
    hw = (us // 3_600_000_000) % 168
    n = hours["n_events"].to_numpy(np.int64)
    flagged = np.zeros(len(hours), bool)
    for key in np.unique(hw):
        idx = np.flatnonzero(hw == key)
        cnt = len(idx)
        s = int(n[idx].sum())
        ssq = int((n[idx].astype(object) * n[idx].astype(object)).sum())
        rhs = k_num * k_num * (cnt * ssq - s * s)
        for i in idx:
            d = cnt * int(n[i]) - s
            flagged[i] = k_den * k_den * d * d > rhs
    out = hours[flagged].sort_values("hour", kind="mergesort")
    return pa.table(
        {
            "hour": pa.array(out["hour"], pa.timestamp("us")),
            "n_events": pa.array(out["n_events"].to_numpy(), pa.int64()),
        }
    )


def hourly_anomalies_oracle_sql(k_num: int = 3, k_den: int = 2) -> str:
    return f"""
        WITH h AS (
            SELECT date_trunc('hour', ts) AS hour, COUNT(*) AS n_events
            FROM events GROUP BY 1
        ),
        hw AS (
            SELECT hour, n_events,
                   -- floored modulo (matches numpy; DuckDB % keeps
                   -- the dividend's sign, which would split pre-1970
                   -- hours into negative groups)
                   ((((CAST(epoch(hour) AS BIGINT) // 3600) % 168)
                     + 168) % 168) AS hw
            FROM h
        ),
        m AS (
            SELECT hw, COUNT(*) AS cnt,
                   CAST(SUM(n_events) AS BIGINT) AS s,
                   CAST(SUM(n_events * n_events) AS BIGINT) AS ssq
            FROM hw GROUP BY hw
        )
        SELECT hw.hour, CAST(hw.n_events AS BIGINT) AS n_events
        FROM hw JOIN m USING (hw)
        WHERE {k_den * k_den}
              * CAST(m.cnt * hw.n_events - m.s AS HUGEINT)
              * CAST(m.cnt * hw.n_events - m.s AS HUGEINT)
              > {k_num * k_num}
              * (CAST(m.cnt AS HUGEINT) * m.ssq
                 - CAST(m.s AS HUGEINT) * m.s)
    """


def dau_wau_stickiness(events_ds, window_days: int = 7,
                       num_partitions: int | None = None):
    """Per-day DAU, trailing-``window_days`` WAU and the DAU/WAU
    stickiness ratio in integer ppm — the product-analytics windowed
    DISTINCT that daily distinct counts can NOT be merged into (a user
    active twice in the window must count once), so it needs its own
    distributed shape.

    Shape: (day, user) DISTINCT pairs via a user-partitioned combine
    (the pair stream is DAU-sized, not event-sized); DAU is a bounded
    day combine over pair partials; WAU expands each pair to its
    ``window_days`` target days (pure int32 date arithmetic) and
    re-distincts (target_day, user) user-partitioned — the expansion is
    x7 the PAIR table, never the event stream — then a bounded day
    combine. Stickiness is integer floor-div ppm on the tiny day table.
    """
    import numpy as np

    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.combine import (
        bounded_key_sum,
        keyed_combine,
    )

    if num_partitions is None:
        num_partitions = default_num_partitions()

    def day_user_partial(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or len(batch) == 0:
            return pa.table(
                {
                    "day": pa.array([], pa.int32()),
                    "user_id": pa.array([], pa.int64()),
                    "one": pa.array([], pa.int64()),
                }
            )
        day = pc.cast(
            pc.cast(pc.floor_temporal(batch["ts"], unit="day"),
                    pa.date32()),
            pa.int32(),
        )
        agg = (
            pa.table({"day": day, "user_id": batch["user_id"]})
            .group_by(["day", "user_id"])
            .aggregate([])
        )
        return agg.append_column(
            "one", pa.array(np.ones(len(agg), np.int64))
        )

    pairs = keyed_combine(
        events_ds.map_batches(
            day_user_partial, batch_format="pyarrow", batch_size=65536
        ),
        ["day", "user_id"], [("one", "max")], part_on=("user_id",),
        num_partitions=num_partitions,
    ).materialize()  # feeds both the DAU and WAU passes

    def dau_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0 or "day" not in (
            t.column_names
        ):
            return pa.table(
                {
                    "day": pa.array([], pa.int32()),
                    "dau": pa.array([], pa.int64()),
                }
            )
        agg = t.select(["day"]).group_by("day").aggregate(
            [([], "count_all")]
        )
        return agg.rename_columns(["day", "dau"])

    dau = bounded_key_sum(
        pairs.map_batches(dau_partial, batch_format="pyarrow",
                          batch_size=None),
        ["day"], ["dau"],
    )

    def expand(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0 or "day" not in (
            t.column_names
        ):
            return pa.table(
                {
                    "day": pa.array([], pa.int32()),
                    "user_id": pa.array([], pa.int64()),
                    "one": pa.array([], pa.int64()),
                }
            )
        d = t["day"].to_numpy(zero_copy_only=False).astype(np.int32)
        u = t["user_id"].to_numpy(zero_copy_only=False)
        tgt = (
            np.repeat(d, window_days)
            + np.tile(np.arange(window_days, dtype=np.int32), len(d))
        )
        agg = (
            pa.table(
                {
                    "day": pa.array(tgt, pa.int32()),
                    "user_id": pa.array(np.repeat(u, window_days)),
                }
            )
            .group_by(["day", "user_id"])
            .aggregate([])
        )
        return agg.append_column(
            "one", pa.array(np.ones(len(agg), np.int64))
        )

    wau_pairs = keyed_combine(
        pairs.map_batches(expand, batch_format="pyarrow"),
        ["day", "user_id"], [("one", "max")], part_on=("user_id",),
        num_partitions=num_partitions,
    )

    wau = bounded_key_sum(
        wau_pairs.map_batches(
            lambda t: dau_partial(t).rename_columns(["day", "wau"]),
            batch_format="pyarrow", batch_size=None,
        ),
        ["day"], ["wau"],
    )

    d = dau.to_pandas()
    w = wau.to_pandas()
    out = d.merge(w, on="day", how="inner").sort_values(
        "day", kind="mergesort"
    )
    dau_v = out["dau"].to_numpy(np.int64)
    wau_v = out["wau"].to_numpy(np.int64)
    return pa.table(
        {
            "day": pc.cast(
                pa.array(out["day"].to_numpy(np.int32), pa.int32()),
                pa.date32(),
            ),
            "dau": pa.array(dau_v, pa.int64()),
            "wau": pa.array(wau_v, pa.int64()),
            "stickiness_ppm": pa.array(
                dau_v * 1_000_000 // wau_v, pa.int64()
            ),
        }
    )


def dau_wau_oracle_sql(window_days: int = 7) -> str:
    return f"""
        WITH du AS MATERIALIZED (
            SELECT DISTINCT CAST(date_trunc('day', ts) AS DATE) AS d,
                   user_id
            FROM events
        ),
        dau AS (SELECT d, COUNT(*) AS dau FROM du GROUP BY d),
        wau AS (
            SELECT a.d, COUNT(DISTINCT b.user_id) AS wau
            FROM dau a JOIN du b
              ON b.d BETWEEN a.d - {window_days - 1} AND a.d
            GROUP BY a.d
        )
        SELECT a.d AS day, CAST(a.dau AS BIGINT) AS dau,
               CAST(w.wau AS BIGINT) AS wau,
               CAST(a.dau * 1000000 // w.wau AS BIGINT)
                   AS stickiness_ppm
        FROM dau a JOIN wau w USING (d)
    """


def session_length_histogram(events_ds, gap_minutes: int = 30):
    """Histogram of session sizes: (n_events_per_session, n_sessions)
    plus the total session minutes bucket — the composition query over
    :func:`sessionize` that product analytics actually charts (are
    users one-and-done or long-session?).

    Scale shape: sessionize's user-partitioned per-group pass (no
    global sort) -> per-batch histogram partials over its session rows
    -> shuffle-free bounded combine (session sizes are small
    integers)."""
    import numpy as np

    from autoner_ray.stages.combine import bounded_key_sum

    sessions = sessionize(events_ds, gap_minutes=gap_minutes)

    def hist_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0 or "n_events" not in (
            t.column_names
        ):
            return pa.table(
                {
                    "n_events": pa.array([], pa.int64()),
                    "n_sessions": pa.array([], pa.int64()),
                    "total_minutes": pa.array([], pa.int64()),
                }
            )
        n = t["n_events"].to_numpy(zero_copy_only=False).astype(np.int64)
        start = pc.cast(t["start_ts"], pa.int64()).to_numpy(
            zero_copy_only=False
        )
        end = pc.cast(t["end_ts"], pa.int64()).to_numpy(
            zero_copy_only=False
        )
        mins = (end - start) // 60_000_000
        import pandas as pd

        agg = (
            pd.DataFrame({"n_events": n, "one": 1, "mins": mins})
            .groupby("n_events", sort=False)
            .agg(n_sessions=("one", "sum"), total_minutes=("mins", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "n_events": pa.array(agg["n_events"].to_numpy(), pa.int64()),
                "n_sessions": pa.array(
                    agg["n_sessions"].to_numpy(), pa.int64()
                ),
                "total_minutes": pa.array(
                    agg["total_minutes"].to_numpy(), pa.int64()
                ),
            }
        )

    return bounded_key_sum(
        sessions.map_batches(hist_partial, batch_format="pyarrow"),
        ["n_events"], ["n_sessions", "total_minutes"],
    )


def session_length_histogram_oracle_sql(gap_minutes: int = 30) -> str:
    return f"""
        WITH gaps AS (
            SELECT user_id, event_id, ts,
                   CASE WHEN ts - LAG(ts) OVER w
                            <= INTERVAL {gap_minutes} MINUTE
                        THEN 0 ELSE 1 END AS new_sess
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ), sess AS (
            SELECT user_id, ts,
                   CAST(SUM(new_sess) OVER (PARTITION BY user_id
                       ORDER BY ts, event_id
                       ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
            FROM gaps
        ), per AS (
            SELECT user_id, session_id, COUNT(*) AS n_events,
                   -- floored elapsed minutes (NOT date_diff, which
                   -- counts minute-boundary crossings)
                   CAST((epoch_us(MAX(ts)) - epoch_us(MIN(ts)))
                        // 60000000 AS BIGINT) AS mins
            FROM sess GROUP BY user_id, session_id
        )
        SELECT CAST(n_events AS BIGINT) AS n_events,
               COUNT(*) AS n_sessions,
               CAST(SUM(mins) AS BIGINT) AS total_minutes
        FROM per GROUP BY n_events
    """


def type_stationary(events_ds, damping: float = 0.85, iters: int = 20):
    """Smoothed stationary distribution of the event-type Markov chain
    (PageRank-style teleport so reducible/periodic chains still
    converge): where does a user's session flow settle? Transition
    counts come from the distributed LAG pass
    (:func:`type_transitions`); the chain itself is TYPE-cardinality
    sized (a bounded dimension), so the 20 power iterations run as a
    driver matvec — the same vocab-bounded split as ``kg_pagerank``.

    Oracle: the same 20 unrolled iterations in SQL with full-float-repr
    literals; both sides round to 6 dp."""
    import numpy as np

    tr = type_transitions(events_ds).to_pandas()
    if len(tr) == 0:
        return pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "rank": pa.array([], pa.float64()),
            }
        )
    nodes = sorted(
        set(tr["prev_type"]) | set(tr["event_type"])
    )
    ix = {t: i for i, t in enumerate(nodes)}
    N = len(nodes)
    out_sum = tr.groupby("prev_type")["n"].sum()
    # P[src, dst] = n / out_sum[src]
    P = np.zeros((N, N), np.float64)
    for s, d_, n in zip(tr["prev_type"], tr["event_type"], tr["n"]):
        P[ix[s], ix[d_]] = float(n) / float(out_sum[s])
    base = (1.0 - damping) / N
    x = np.full(N, 1.0 / N, np.float64)
    has_in = P.sum(axis=0) > 0
    for _ in range(iters):
        x = base + damping * (x @ P)
        # mirror the SQL exactly: dst nodes with no incoming
        # transitions drop out of pr{k} (the unrolled CTE only emits
        # rows FROM trans), so zero them rather than keep base mass
        x = np.where(has_in, x, 0.0)
    keep = has_in
    return pa.table(
        {
            "event_type": pa.array(
                [n for n, k in zip(nodes, keep) if k], pa.string()
            ),
            "rank": pa.array(
                np.round(x[keep], 6), pa.float64()
            ),
        }
    )


def type_stationary_oracle_sql(damping: float = 0.85,
                               iters: int = 20) -> str:
    base = repr(1.0 - damping)
    d = repr(damping)
    steps = []
    for k in range(1, iters + 1):
        steps.append(f"""
        pr{k} AS MATERIALIZED (
            SELECT t.dst AS entity,
                   {base} / nn.n + {d} * SUM(pr.rank * t.p) AS rank
            FROM trans t JOIN pr{k - 1} pr ON pr.entity = t.src, nn
            GROUP BY t.dst, nn.n
        )""")
    return f"""
        WITH tcounts AS MATERIALIZED (
            SELECT prev_type AS src, event_type AS dst, COUNT(*) AS n
            FROM (
                SELECT event_type,
                       lag(event_type) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS prev_type
                FROM events
            ) WHERE prev_type IS NOT NULL
            GROUP BY 1, 2
        ),
        nodes AS MATERIALIZED (
            SELECT DISTINCT src AS entity FROM tcounts
            UNION SELECT DISTINCT dst FROM tcounts
        ),
        nn AS MATERIALIZED (SELECT COUNT(*) AS n FROM nodes),
        outw AS MATERIALIZED (
            SELECT src, SUM(n) AS ow FROM tcounts GROUP BY src
        ),
        trans AS MATERIALIZED (
            SELECT t.src, t.dst,
                   CAST(t.n AS DOUBLE) / CAST(o.ow AS DOUBLE) AS p
            FROM tcounts t JOIN outw o ON t.src = o.src
        ),
        pr0 AS MATERIALIZED (
            SELECT entity, 1.0 / nn.n AS rank FROM nodes, nn
        ),
        {", ".join(steps)}
        SELECT entity AS event_type, round(rank, 6) AS rank
        FROM pr{iters}
    """


def user_lifetime_histogram(events_ds):
    """(lifetime_days -> n_users): days between a user's first and last
    event, floored — the engagement-span distribution. Per-batch
    (user -> min/max ts) partials via the arrow hash combine, one
    user-key reduce, then a bounded histogram combine (lifetimes are
    small integers)."""
    import numpy as np

    from ray.data.aggregate import Max, Min

    from autoner_ray.stages.combine import bounded_key_sum

    def user_partial(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or len(batch) == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "first_ts": pa.array([], pa.timestamp("us")),
                    "last_ts": pa.array([], pa.timestamp("us")),
                }
            )
        agg = (
            batch.select(["user_id", "ts"])
            .group_by("user_id")
            .aggregate([("ts", "min"), ("ts", "max")])
        )
        return agg.rename_columns(["user_id", "first_ts", "last_ts"])

    per_user = (
        events_ds.map_batches(
            user_partial, batch_format="pyarrow", batch_size=65536
        )
        .groupby("user_id")
        .aggregate(
            Min("first_ts", alias_name="first_ts"),
            Max("last_ts", alias_name="last_ts"),
        )
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0 or "first_ts" not in (
            t.column_names
        ):
            return pa.table(
                {
                    "lifetime_days": pa.array([], pa.int64()),
                    "n_users": pa.array([], pa.int64()),
                }
            )
        a = pc.cast(t["first_ts"], pa.int64()).to_numpy(
            zero_copy_only=False
        )
        b = pc.cast(t["last_ts"], pa.int64()).to_numpy(
            zero_copy_only=False
        )
        days = (b - a) // 86_400_000_000
        vals, counts = np.unique(days, return_counts=True)
        return pa.table(
            {
                "lifetime_days": pa.array(vals, pa.int64()),
                "n_users": pa.array(counts, pa.int64()),
            }
        )

    return bounded_key_sum(
        per_user.map_batches(hist_partial, batch_format="pyarrow",
                             batch_size=None),
        ["lifetime_days"], ["n_users"],
    )


def user_lifetime_oracle_sql() -> str:
    return """
        WITH u AS (
            SELECT user_id,
                   CAST((epoch_us(MAX(ts)) - epoch_us(MIN(ts)))
                        // 86400000000 AS BIGINT) AS lifetime_days
            FROM events GROUP BY user_id
        )
        SELECT lifetime_days, COUNT(*) AS n_users
        FROM u GROUP BY lifetime_days
    """


def retention_normalized(events_ds):
    """Cohort retention in integer ppm: for each (cohort_day,
    day_offset), retained users / cohort size — the chart-ready
    normalization of :func:`retention_cohorts` (same distributed
    passes; the normalize is a join of two BOUNDED tables:
    days x offsets vs days)."""
    import numpy as np

    raw = retention_cohorts(events_ds).to_pandas()
    if len(raw) == 0:
        return pa.table(
            {
                "cohort_day": pa.array([], pa.date32()),
                "day_offset": pa.array([], pa.int64()),
                "users": pa.array([], pa.int64()),
                "retention_ppm": pa.array([], pa.int64()),
            }
        )
    base = (
        raw[raw["day_offset"] == 0][["cohort_day", "users"]]
        .rename(columns={"users": "cohort_size"})
    )
    out = raw.merge(base, on="cohort_day", how="inner")
    u = out["users"].to_numpy(np.int64)
    c = out["cohort_size"].to_numpy(np.int64)
    return pa.table(
        {
            "cohort_day": pa.array(out["cohort_day"], pa.date32()),
            "day_offset": pa.array(
                out["day_offset"].to_numpy(np.int64)
            ),
            "users": pa.array(u, pa.int64()),
            "retention_ppm": pa.array(u * 1_000_000 // c, pa.int64()),
        }
    )


def retention_normalized_oracle_sql() -> str:
    return """
        WITH ud AS (
            SELECT DISTINCT user_id,
                   CAST(date_trunc('day', ts) AS DATE) AS day
            FROM events
        ),
        f AS (
            SELECT user_id, min(day) AS cohort_day FROM ud
            GROUP BY user_id
        ),
        r AS (
            SELECT f.cohort_day,
                   date_diff('day', f.cohort_day, ud.day) AS day_offset,
                   count(*) AS users
            FROM ud JOIN f USING (user_id)
            GROUP BY 1, 2
        ),
        base AS (
            SELECT cohort_day, users AS cohort_size FROM r
            WHERE day_offset = 0
        )
        SELECT r.cohort_day, CAST(r.day_offset AS BIGINT) AS day_offset,
               CAST(r.users AS BIGINT) AS users,
               CAST(r.users * 1000000 // b.cohort_size AS BIGINT)
                   AS retention_ppm
        FROM r JOIN base b USING (cohort_day)
    """


def user_decay_scores(events_ds, ref_date: str = "2024-02-15",
                      half_life_days: int = 30):
    """Recency-weighted engagement score per user — the exponential-
    decay featurization rankers use (events lose half their weight
    every ``half_life_days``): each event contributes
    ``floor(2^(-age_days/half_life) * 1e6 + 0.5)`` integer micro-
    points, summed per user. Per-event quantization makes the sum
    order-independent and hash-exact against the SQL twin (float exp
    sums would drift with summation order).

    Scale shape: stateless vectorized per-batch scoring fused with a
    per-batch user pre-combine, then ONE user-partitioned sum
    (:func:`combine.partitioned_key_sum` — nothing user-set-sized on
    the driver)."""
    import numpy as np

    from autoner_ray.stages.combine import partitioned_key_sum

    ref_us = np.datetime64(ref_date, "us").astype(np.int64)
    us_per_day = 86_400_000_000

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "score_micro": pa.array([], pa.int64()),
                }
            )
        ts = pc.cast(t["ts"].combine_chunks(), pa.int64()).to_numpy()
        age_days = (ref_us - ts).astype(np.float64) / us_per_day
        # np.power -> libm pow, the same function DuckDB's pow(2.0, x)
        # calls on this host (np.exp2 is a DIFFERENT libm entry point
        # that can round differently near quantization boundaries)
        micro = np.floor(
            np.power(2.0, -age_days / half_life_days) * 1e6 + 0.5
        ).astype(np.int64)
        agg = (
            pa.table(
                {
                    "user_id": t["user_id"],
                    "score_micro": pa.array(micro, pa.int64()),
                }
            )
            .group_by("user_id")
            .aggregate([("score_micro", "sum")])
        )
        return agg.rename_columns(["user_id", "score_micro"])

    return partitioned_key_sum(
        events_ds.map_batches(
            partial, batch_format="pyarrow", batch_size=65536
        ),
        ["user_id"], ["score_micro"], part_on=("user_id",),
    )


def user_decay_scores_oracle_sql(ref_date: str = "2024-02-15",
                                 half_life_days: int = 30) -> str:
    return f"""
        SELECT user_id,
               CAST(SUM(CAST(floor(
                   pow(2.0, -(CAST(
                       epoch_us(TIMESTAMP '{ref_date}') - epoch_us(ts)
                   AS DOUBLE) / 86400000000.0) / {half_life_days})
                   * 1000000 + 0.5
               ) AS BIGINT)) AS BIGINT) AS score_micro
        FROM events
        GROUP BY user_id
    """


def rolling_median(events_ds, window: int = 5):
    """Per-user rolling median of ``value`` over the last ``window``
    events (event-time order, ``event_id`` tiebreak) — the robust
    smoothing pass monitoring pipelines run before thresholding. One
    row per event. The median is an exact order statistic (or the
    exact mean of the two middle doubles), so floats hash-match the
    SQL window twin with no quantization.

    Scale shape: the sessionize pattern — ONE hash shuffle on user_id,
    per-group ts-sort + pandas vectorized rolling kernel. A window
    needs only its own user's history, so no cross-partition state."""

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype="int64"),
                    "event_id": pd.Series(dtype="int64"),
                    "roll_median": pd.Series(dtype="float64"),
                }
            )
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        med = (
            df["value"].rolling(window, min_periods=1).median()
        )
        return pd.DataFrame(
            {
                "user_id": df["user_id"].values,
                "event_id": df["event_id"].values,
                "roll_median": med.to_numpy(dtype=float),
            }
        )

    return events_ds.groupby("user_id").map_groups(
        per_user, batch_format="pandas"
    )


def rolling_median_oracle_sql(window: int = 5) -> str:
    return f"""
        SELECT user_id, event_id,
               median(value) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                   ROWS BETWEEN {window - 1} PRECEDING AND CURRENT ROW
               ) AS roll_median
        FROM events
    """


def activity_bitmaps(events_ds, epoch: str = "2024-01-01"):
    """Per-user daily-activity bitmap: bit ``d`` set iff the user had
    any event ``d`` days after ``epoch`` — the compact engagement
    feature (int64, ≤63-day window) recommenders join against. OR is
    re-associative, so per-batch bitmap partials combine exactly in
    any order.

    Scale shape: per-batch (user -> OR) pandas combine -> ONE hash
    shuffle on user_id -> per-partition final OR. The bitmap column
    is 8 bytes/user end to end."""
    import numpy as np

    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.joins import _stable_part_col

    epoch_us = np.datetime64(epoch, "us").astype(np.int64)
    us_per_day = 86_400_000_000
    P = default_num_partitions()

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "bitmap": pa.array([], pa.int64()),
                "part": pa.array([], pa.int32()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        ts = pc.cast(t["ts"].combine_chunks(), pa.int64()).to_numpy()
        day = (ts - epoch_us) // us_per_day
        df = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(),
                "bit": np.int64(1) << day.astype(np.int64),
            }
        )
        agg = (
            df.groupby("user_id", sort=False)["bit"]
            .agg(lambda s: np.bitwise_or.reduce(s.to_numpy(np.int64)))
            .reset_index(name="bitmap")
        )
        out = pa.table(
            {
                "user_id": pa.array(
                    agg["user_id"].to_numpy(np.int64), pa.int64()
                ),
                "bitmap": pa.array(
                    agg["bitmap"].to_numpy(np.int64), pa.int64()
                ),
            }
        )
        return out.append_column(
            "part", _stable_part_col(out, ("user_id",), P)
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "user_id": pd.Series(dtype="int64"),
                "bitmap": pd.Series(dtype="int64"),
                "active_days": pd.Series(dtype="int64"),
            }
        )
        if len(df) == 0 or "user_id" not in df.columns:
            return empty
        agg = (
            df.groupby("user_id", sort=False)["bitmap"]
            .agg(lambda s: np.bitwise_or.reduce(s.to_numpy(np.int64)))
            .reset_index()
        )
        pop = np.array(
            [bin(int(b)).count("1") for b in agg["bitmap"]], np.int64
        )
        agg["active_days"] = pop
        return agg.astype(
            {"user_id": "int64", "bitmap": "int64"}
        ).reset_index(drop=True)

    return (
        events_ds.map_batches(
            partial, batch_format="pyarrow", batch_size=65536
        )
        .groupby("part")
        .map_groups(final, batch_format="pandas")
    )


def activity_bitmaps_oracle_sql(epoch: str = "2024-01-01") -> str:
    return f"""
        SELECT user_id,
               bit_or(CAST(1 AS BIGINT)
                      << date_diff('day', DATE '{epoch}',
                                   CAST(ts AS DATE))) AS bitmap,
               CAST(COUNT(DISTINCT CAST(ts AS DATE)) AS BIGINT)
                   AS active_days
        FROM events
        GROUP BY user_id
    """


_TYPE_CHAR = {
    "click": "c",
    "purchase": "p",
    "error": "e",
    "signup": "s",
    "view": "v",
}


def sequence_pattern_counts(events_ds, pattern: str = "v[^vp]*p"):
    """Complex-event-processing primitive: per user, compress the
    event-type stream (event-time order, ``event_id`` tiebreak) to a
    one-char-per-event string and count non-overlapping regex matches
    — default ``v[^vp]*p`` = "a view that converts to a purchase with
    no intervening view/purchase", the pattern-match formulation of
    funnel conversion. Leftmost-earliest non-overlapping semantics are
    identical in Python ``re`` and DuckDB RE2 for this pattern class.

    Scale shape: the sessionize shape — ONE hash shuffle on user_id,
    per-group sort + single regex scan over a string that is
    |user events| chars long (no cross-user state)."""
    import re

    rx = re.compile(pattern)

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "user_id" not in df.columns:
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype="int64"),
                    "n_events": pd.Series(dtype="int64"),
                    "n_matches": pd.Series(dtype="int64"),
                }
            )
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        s = "".join(
            _TYPE_CHAR.get(t, "x") for t in df["event_type"]
        )
        return pd.DataFrame(
            {
                "user_id": [int(df["user_id"].iloc[0])],
                "n_events": [len(df)],
                "n_matches": [len(rx.findall(s))],
            }
        )

    return events_ds.groupby("user_id").map_groups(
        per_user, batch_format="pandas"
    )


def sequence_pattern_oracle_sql(pattern: str = "v[^vp]*p") -> str:
    return f"""
        WITH seq AS (
            SELECT user_id, COUNT(*) AS n_events,
                   string_agg(
                       CASE event_type
                           WHEN 'click' THEN 'c'
                           WHEN 'purchase' THEN 'p'
                           WHEN 'error' THEN 'e'
                           WHEN 'signup' THEN 's'
                           WHEN 'view' THEN 'v'
                           ELSE 'x' END,
                       '' ORDER BY ts, event_id
                   ) AS s
            FROM events GROUP BY user_id
        )
        SELECT user_id, n_events,
               CAST(len(regexp_extract_all(s, '{pattern}'))
                    AS BIGINT) AS n_matches
        FROM seq
    """


def hourly_top_type(events_ds):
    """Per hour-of-day (0–23), the most frequent event type — counts
    keyed by (hour, type), argmax per hour with lexicographic-min
    tiebreak. The "peak traffic composition by time of day" rollup.

    Scale shape: per-batch arrow hash partials over the bounded
    24 × |event types| key space -> shuffle-free ``bounded_key_sum``
    combine -> argmax on the tiny final block (no event ever leaves
    its batch)."""
    from autoner_ray.stages.combine import bounded_key_sum

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "hour": pa.array([], pa.int64()),
                "event_type": pa.array([], pa.string()),
                "n_events": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        hour = pc.cast(pc.hour(t["ts"]), pa.int64())
        agg = (
            pa.table({"hour": hour, "event_type": t["event_type"]})
            .group_by(["hour", "event_type"])
            .aggregate([([], "count_all")])
        )
        return agg.rename_columns(["hour", "event_type", "n_events"])

    counts = bounded_key_sum(
        events_ds.map_batches(
            partial, batch_format="pyarrow", batch_size=65536
        ),
        ["hour", "event_type"], ["n_events"],
    )

    def argmax(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "hour": pa.array([], pa.int64()),
                    "top_type": pa.array([], pa.string()),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        df = t.to_pandas().sort_values(
            ["hour", "n_events", "event_type"],
            ascending=[True, False, True], kind="mergesort",
        )
        top = df.groupby("hour", as_index=False).first()
        return pa.table(
            {
                "hour": pa.array(top["hour"], pa.int64()),
                "top_type": pa.array(top["event_type"], pa.string()),
                "n_events": pa.array(top["n_events"], pa.int64()),
            }
        )

    return counts.repartition(1).map_batches(
        argmax, batch_format="pyarrow", batch_size=None
    )


def hourly_top_type_oracle_sql() -> str:
    return """
        WITH c AS (
            SELECT CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hour,
                   event_type, COUNT(*) AS n_events
            FROM events GROUP BY 1, 2
        ),
        r AS (
            SELECT hour, event_type, n_events,
                   ROW_NUMBER() OVER (
                       PARTITION BY hour
                       ORDER BY n_events DESC, event_type
                   ) AS rk
            FROM c
        )
        SELECT hour, event_type AS top_type, n_events
        FROM r WHERE rk = 1
    """


def hourly_ffill(events_ds):
    """Regular-grid resampling with forward fill — the
    feature-engineering staple that turns an irregular event stream
    into a fixed hourly series: per user, one row per hour from the
    hour of their first event to the hour of their last, carrying the
    value of the LATEST event seen by the end of that hour (ties on
    ``ts`` broken by highest ``event_id`` — deterministic at any
    parallelism). Output (user_id, hour, value); values are copied,
    never recomputed, so the driver's float hash is bit-stable.

    Scale shape: the same per-user hash-partitioned ``map_groups`` as
    :func:`sessionize` — a user's grid is bounded by their own activity
    span, the per-group fill is one sort + one vectorized searchsorted,
    and nothing corpus-sized converges on the driver."""
    import numpy as np

    _HOUR_US = 3_600 * 1_000_000

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        ts_us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        lo = (ts_us[0] // _HOUR_US) * _HOUR_US
        hi = (ts_us[-1] // _HOUR_US) * _HOUR_US
        hours = np.arange(lo, hi + _HOUR_US, _HOUR_US, dtype=np.int64)
        # latest event with ts < hour_end == index (searchsorted left)-1
        idx = np.searchsorted(ts_us, hours + _HOUR_US, side="left") - 1
        # first grid hour contains the first event, so idx >= 0 always
        return pd.DataFrame(
            {
                "user_id": df["user_id"].iloc[0],
                "hour": hours.astype("datetime64[us]"),
                "value": df["value"].to_numpy()[idx],
            }
        )

    return events_ds.select_columns(
        ["user_id", "ts", "event_id", "value"]
    ).groupby("user_id").map_groups(per_user, batch_format="pandas")


def trimmed_mean_by_type(events_ds, trim: float = 0.05):
    """EXACT per-group trimmed mean of ``value`` per event_type: drop
    the ``floor(trim * n)`` lowest and highest values (by value rank;
    equal values are interchangeable so no row tie-break is needed) and
    average the rest — the robust location estimate reporting pipelines
    use when a few outlier rows would swamp a plain mean. Output
    (event_type, n_kept, trimmed_mean) with the mean derived from an
    integer cents sum (round-half-up at the 6th dp like the quantile
    op) so the value-hash is engine-independent.

    Scale shape: identical to :func:`value_quantiles_by_type` — the
    shuffle moves per-batch (event_type, cents, n) histogram partials,
    never rows; each group merges its (bounded-domain) histogram and
    trims by cumulative-count arithmetic, slicing partial counts at
    the two cut bins exactly."""
    import numpy as np

    k_num = int(round(trim * 1_000_000))

    def hist_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "cents": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        t = _value_cents(t)
        agg = (
            t.select(["event_type", "value_cents"])
            .group_by(["event_type", "value_cents"])
            .aggregate([("value_cents", "count")])
        )
        return agg.rename_columns(["event_type", "cents", "n"])

    def group_trim(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "event_type" not in df.columns:
            return pd.DataFrame(
                {
                    "event_type": pd.Series(dtype="object"),
                    "n_kept": pd.Series(dtype="int64"),
                    "trimmed_mean": pd.Series(dtype="float64"),
                }
            )
        h = df.groupby("cents", sort=True)["n"].sum().reset_index()
        vals = h["cents"].to_numpy(np.int64)
        cnt = h["n"].to_numpy(np.int64)
        n = int(cnt.sum())
        k = (n * k_num) // 1_000_000  # floor(trim * n), exact in ints
        # drop k lowest: walk bins from the left, slicing the cut bin
        keep = cnt.copy()
        rem = k
        for i in range(len(keep)):
            take = min(rem, int(keep[i]))
            keep[i] -= take
            rem -= take
            if rem == 0:
                break
        rem = k
        for i in range(len(keep) - 1, -1, -1):
            take = min(rem, int(keep[i]))
            keep[i] -= take
            rem -= take
            if rem == 0:
                break
        n_kept = int(keep.sum())
        total = int((vals * keep).sum())
        mean = round(total / n_kept / 100.0, 6) if n_kept else 0.0
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_kept": np.array([n_kept], np.int64),
                "trimmed_mean": [mean],
            }
        )

    return (
        events_ds.map_batches(hist_partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(group_trim, batch_format="pandas")
    )


def survival_km(events_ds, death_type: str = "purchase"):
    """Kaplan–Meier time-to-conversion curve — the survival analysis a
    growth team runs on an event stream: per user, the DEATH event is
    their first ``death_type`` event and the clock starts at their
    first event of any kind; lifetime = whole HOURS in between. Users
    with no ``death_type`` event are right-CENSORED at their last
    observed event (they count at risk up to that hour, never as a
    conversion). One row per conversion hour: (t_hours, n_at_risk,
    n_events, survival_ppm) with the product limit in EXACT integer ppm
    (``S_i = S_{i-1} * (n_i - d_i) // n_i``, floor) so the value-hash
    is engine-independent — the SQL twin replays the identical
    recurrence in a recursive CTE.

    Scale shape: per-user (first, first-death, last) come from one
    user-partitioned min/min/max combine (the conditional min rides a
    sentinel); the curve lives on the bounded whole-hour domain —
    (lifetime, censored, n) histogram partials feed one bounded
    combine and the cumulative product is a tiny driver loop."""
    import numpy as np

    from autoner_ray.stages.combine import (
        bounded_key_sum,
        keyed_combine,
    )

    _HOUR_US = 3_600 * 1_000_000
    _SENT = (1 << 62)

    _p_schema = pa.schema(
        [("user_id", pa.int64()), ("first_us", pa.int64()),
         ("death_us", pa.int64()), ("last_us", pa.int64())]
    )

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _p_schema.empty_table()
        import pandas as pd

        ts = t["ts"].cast(pa.int64()).to_numpy()
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        is_death = np.asarray(
            [x == death_type for x in t["event_type"].to_pylist()]
        )
        df = pd.DataFrame(
            {
                "user_id": uid,
                "first_us": ts,
                "death_us": np.where(is_death, ts, _SENT),
                "last_us": ts,
            }
        )
        g = df.groupby("user_id", as_index=False).agg(
            first_us=("first_us", "min"),
            death_us=("death_us", "min"),
            last_us=("last_us", "max"),
        )
        return pa.Table.from_pandas(
            g, schema=_p_schema, preserve_index=False
        ).replace_schema_metadata(None)

    spans = keyed_combine(
        events_ds.select_columns(["user_id", "ts", "event_type"])
        .map_batches(partial, batch_format="pyarrow",
                     batch_size=65536),
        keys=["user_id"],
        aggs=[("first_us", "min"), ("death_us", "min"),
              ("last_us", "max")],
        part_on=("user_id",),
    )

    _h_schema = pa.schema(
        [("lifetime", pa.int64()), ("censored", pa.int64()),
         ("n", pa.int64())]
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _h_schema.empty_table()
        import pandas as pd

        first = t["first_us"].to_numpy()
        death = t["death_us"].to_numpy()
        last = t["last_us"].to_numpy()
        cens = (death >= _SENT).astype(np.int64)
        end = np.where(cens == 1, last, death)
        life = (end - first) // _HOUR_US
        g = (
            pd.DataFrame({"lifetime": life, "censored": cens})
            .groupby(["lifetime", "censored"], as_index=False)
            .size()
        )
        return pa.table(
            {
                "lifetime": pa.array(g["lifetime"].to_numpy(), pa.int64()),
                "censored": pa.array(g["censored"].to_numpy(), pa.int64()),
                "n": pa.array(g["size"].to_numpy(), pa.int64()),
            },
            schema=_h_schema,
        )

    hist = bounded_key_sum(
        spans.map_batches(hist_partial, batch_format="pyarrow"),
        keys=["lifetime", "censored"], sum_cols=["n"],
    ).to_pandas().sort_values("lifetime")
    total = int(hist["n"].sum())
    deaths = {
        int(r.lifetime): int(r.n)
        for r in hist[hist["censored"] == 0].itertuples()
    }
    all_at = hist.groupby("lifetime")["n"].sum()
    days = sorted(all_at.index)
    at_risk_after: dict[int, int] = {}
    run = total
    for d in days:
        at_risk_after[d] = run
        run -= int(all_at[d])
    s = 1_000_000
    out_t, out_r, out_d, out_s = [], [], [], []
    for d in sorted(deaths):
        n_i = at_risk_after[d]
        d_i = deaths[d]
        s = s * (n_i - d_i) // n_i
        out_t.append(d)
        out_r.append(n_i)
        out_d.append(d_i)
        out_s.append(s)
    return pa.table(
        {
            "t_hours": pa.array(out_t, pa.int64()),
            "n_at_risk": pa.array(out_r, pa.int64()),
            "n_events": pa.array(out_d, pa.int64()),
            "survival_ppm": pa.array(out_s, pa.int64()),
        }
    )


def encoding_advisor(events_ds):
    """Columnar encoding advisor for ``event_type`` under the engine's
    real layout (hash-partitioned by user, time-sorted within user —
    runs therefore never span users, which is what makes the run count
    EXACTLY partitionable): one row of integer sizing facts a writer
    uses to pick an encoding —
      n_rows, n_distinct, n_runs,
      plain_bits = 8 * total value bytes,
      dict_bits  = n_rows * ceil(log2(n_distinct)) + 8 * dict bytes,
      rle_bits   = n_runs * (ceil(log2(n_distinct)) + 32)
    (32-bit run lengths; pure-integer formulas so the value-hash is
    engine-independent).

    Scale shape: per-user run/byte partials ride the same
    user-partitioned ``map_groups`` as sessionize; the distinct-value
    set is the tiny event-type domain via the bounded combine."""
    import numpy as np

    from ray.data.aggregate import Sum

    from autoner_ray.stages.combine import bounded_key_sum

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        et = df["event_type"].to_numpy()
        runs = 1 + int((et[1:] != et[:-1]).sum()) if len(et) else 0
        return pd.DataFrame(
            {
                "n_rows": [len(et)],
                "n_runs": [runs],
                "val_bytes": [int(sum(len(x) for x in et))],
            }
        )

    partials = (
        events_ds.select_columns(["user_id", "ts", "event_id",
                                  "event_type"])
        .groupby("user_id")
        .map_groups(per_user, batch_format="pandas")
    )
    tot = partials.aggregate(
        Sum("n_rows", alias_name="n_rows"),
        Sum("n_runs", alias_name="n_runs"),
        Sum("val_bytes", alias_name="val_bytes"),
    )
    n_rows = int(tot["n_rows"])
    n_runs = int(tot["n_runs"])
    val_bytes = int(tot["val_bytes"])

    _d_schema = pa.schema([("v", pa.string()), ("one", pa.int64())])

    def distinct_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _d_schema.empty_table()
        import pyarrow.compute as pc

        u = pc.unique(t["event_type"])
        return pa.table(
            {"v": u, "one": pa.array([1] * len(u), pa.int64())},
            schema=_d_schema,
        )

    dvals = bounded_key_sum(
        events_ds.select_columns(["event_type"]).map_batches(
            distinct_partial, batch_format="pyarrow", batch_size=65536
        ),
        keys=["v"], sum_cols=["one"],
    ).to_pandas()
    n_distinct = len(dvals)
    dict_bytes = int(dvals["v"].str.len().sum())
    code_bits = max(1, (n_distinct - 1).bit_length()) if n_distinct else 0
    return pa.table(
        {
            "n_rows": pa.array([n_rows], pa.int64()),
            "n_distinct": pa.array([n_distinct], pa.int64()),
            "n_runs": pa.array([n_runs], pa.int64()),
            "plain_bits": pa.array([8 * val_bytes], pa.int64()),
            "dict_bits": pa.array(
                [n_rows * code_bits + 8 * dict_bytes], pa.int64()
            ),
            "rle_bits": pa.array(
                [n_runs * (code_bits + 32)], pa.int64()
            ),
        }
    )


def late_arrivals(events_ds):
    """Watermark / out-of-orderness audit — the streaming-ingest health
    check: replay each user's stream in ARRIVAL order (``event_id``)
    and count events whose timestamp is behind the running event-time
    watermark (max ts seen so far), plus the worst lag. One row:
    (n_events, n_late, max_lag_us). An engine sizing its
    allowed-lateness window reads max_lag_us directly.

    Scale shape: per-user partials (count/late/max-lag are all
    re-associative across users) via the sessionize-style
    user-partitioned ``map_groups``; one tiny global sum."""
    import numpy as np

    from ray.data.aggregate import Max, Sum

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("event_id", kind="mergesort")
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        wm = np.maximum.accumulate(ts)
        # an event is late when it arrives behind the PRIOR watermark
        prior = np.concatenate([[np.iinfo(np.int64).min], wm[:-1]])
        late = ts < prior
        lag = int((prior[late] - ts[late]).max()) if late.any() else 0
        return pd.DataFrame(
            {
                "n_events": [len(ts)],
                "n_late": [int(late.sum())],
                "max_lag_us": [lag],
            }
        )

    partials = (
        events_ds.select_columns(["user_id", "ts", "event_id"])
        .groupby("user_id")
        .map_groups(per_user, batch_format="pandas")
    )
    tot = partials.aggregate(
        Sum("n_events", alias_name="n_events"),
        Sum("n_late", alias_name="n_late"),
        Max("max_lag_us", alias_name="max_lag_us"),
    )
    return pa.table(
        {
            "n_events": pa.array([int(tot["n_events"])], pa.int64()),
            "n_late": pa.array([int(tot["n_late"])], pa.int64()),
            "max_lag_us": pa.array([int(tot["max_lag_us"])], pa.int64()),
        }
    )


def last_touch_attribution(events_ds):
    """Last-touch conversion attribution — the marketing-analytics
    staple: every ``purchase`` is credited to the LATEST preceding
    non-purchase event of the same user (ties on ts break by highest
    event_id, matching the stream's arrival order); purchases with no
    preceding touch credit the synthetic channel ``(none)``. Output
    (touch_type, n_conversions) over all crediting channels.

    Scale shape: the per-user scan is one sort + searchsorted inside
    the sessionize-style user-partitioned ``map_groups``; channel
    counts ride the bounded combine over the tiny event-type domain."""
    import numpy as np

    from autoner_ray.stages.combine import bounded_key_sum

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        et = df["event_type"].to_numpy()
        is_p = et == "purchase"
        touches = np.flatnonzero(~is_p)
        out: dict = {}
        for i in np.flatnonzero(is_p):
            j = np.searchsorted(touches, i, side="left") - 1
            ch = et[touches[j]] if j >= 0 else "(none)"
            out[ch] = out.get(ch, 0) + 1
        return pd.DataFrame(
            {
                "touch_type": list(out.keys()),
                "n_conversions": np.array(
                    list(out.values()), np.int64
                ),
            }
        )

    return bounded_key_sum(
        events_ds.select_columns(["user_id", "ts", "event_id",
                                  "event_type"])
        .groupby("user_id")
        .map_groups(per_user, batch_format="pandas"),
        keys=["touch_type"], sum_cols=["n_conversions"],
    )


def first_touch_attribution(events_ds):
    """First-touch sibling of :func:`last_touch_attribution`: every
    purchase credits the user's EARLIEST event of any non-purchase
    type (the acquisition channel); purchases preceded by nothing
    credit ``(none)``. Output (touch_type, n_conversions)."""
    import numpy as np

    from autoner_ray.stages.combine import bounded_key_sum

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        et = df["event_type"].to_numpy()
        is_p = et == "purchase"
        touches = np.flatnonzero(~is_p)
        out: dict = {}
        for i in np.flatnonzero(is_p):
            j = np.searchsorted(touches, i, side="left")
            ch = et[touches[0]] if j > 0 else "(none)"
            out[ch] = out.get(ch, 0) + 1
        return pd.DataFrame(
            {
                "touch_type": list(out.keys()),
                "n_conversions": np.array(
                    list(out.values()), np.int64
                ),
            }
        )

    return bounded_key_sum(
        events_ds.select_columns(["user_id", "ts", "event_id",
                                  "event_type"])
        .groupby("user_id")
        .map_groups(per_user, batch_format="pandas"),
        keys=["touch_type"], sum_cols=["n_conversions"],
    )


def markov_entropy_rate(events_ds):
    """Empirical entropy rate of the event-type Markov chain — the
    predictability number a sequence model's achievable loss floors
    at: H = (1/N)[Σ_s n_s ln n_s − Σ_st n_st ln n_st] over the
    transition counts (MLE conditional entropy weighted by empirical
    state frequency). Each ln-term quantizes to integer micro-nats
    BEFORE summation (the ``source_word_entropy`` trick) so the sums
    are order-independent and the SQL twin matches exactly; only the
    final division touches floats, identically on both sides. One
    row: (n_transitions, n_states, entropy_rate).

    Scale shape: transition counts come from the bounded
    |types|² combine of :func:`type_transitions`; the micro-nat fold
    is driver arithmetic on that bounded table."""
    import math

    import numpy as np

    trans = type_transitions(events_ds).to_pandas()
    n_st = trans["n"].to_numpy(np.int64)
    N = int(n_st.sum())
    n_s = trans.groupby("prev_type")["n"].sum().to_numpy(np.int64)
    a = int(np.floor(np.log(n_s.astype(np.float64)) * n_s * 1e6
                     + 0.5).astype(np.int64).sum())
    b = int(np.floor(np.log(n_st.astype(np.float64)) * n_st * 1e6
                     + 0.5).astype(np.int64).sum())
    rate = round((a - b) / 1e6 / float(N), 6) if N else 0.0
    return pa.table(
        {
            "n_transitions": pa.array([N], pa.int64()),
            "n_states": pa.array(
                [int(trans["prev_type"].nunique())], pa.int64()
            ),
            "entropy_rate": pa.array([rate], pa.float64()),
        }
    )


def dispersion_index(events_ds):
    """Index of dispersion (variance-to-mean ratio) of hourly event
    counts per type — the burstiness-vs-Poisson test a capacity
    planner runs (IoD ≈ 1 means Poisson arrivals; >> 1 means bursts):
    counts are taken over the FULL global hour grid (zero hours
    included — silence is signal for dispersion) and the ratio is the
    exact integer identity ``IoD·1e6 = (n·Σx² − S²)·1e6 // (n·S)``.
    One row per type: (event_type, n_hours, n_events, dispersion_ppm).

    Scale shape: per-batch (type, hour) count partials ride the
    bounded combine (types × span-hours is small); the moment fold is
    driver arithmetic; the global hour span comes from two scalar
    aggregates."""
    import numpy as np

    from autoner_ray.stages.combine import bounded_key_sum

    _HOUR_US = 3_600 * 1_000_000

    _h_schema = pa.schema(
        [("event_type", pa.string()), ("hour", pa.int64()),
         ("n", pa.int64())]
    )

    def hour_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _h_schema.empty_table()
        import pandas as pd

        h = (t["ts"].cast(pa.int64()).to_numpy() // _HOUR_US)
        g = (
            pd.DataFrame(
                {"event_type": t["event_type"].to_pylist(), "hour": h}
            )
            .groupby(["event_type", "hour"], as_index=False)
            .size()
        )
        return pa.table(
            {
                "event_type": pa.array(g["event_type"], pa.string()),
                "hour": pa.array(g["hour"].to_numpy(), pa.int64()),
                "n": pa.array(g["size"].to_numpy(), pa.int64()),
            },
            schema=_h_schema,
        )

    hourly = bounded_key_sum(
        events_ds.select_columns(["event_type", "ts"]).map_batches(
            hour_partial, batch_format="pyarrow", batch_size=65536
        ),
        keys=["event_type", "hour"], sum_cols=["n"],
    ).to_pandas()
    lo = int(hourly["hour"].min())
    hi = int(hourly["hour"].max())
    n_hours = hi - lo + 1
    rows = []
    for et, g in hourly.groupby("event_type"):
        x = g["n"].to_numpy(np.int64)
        s = int(x.sum())
        sq = int((x * x).sum())  # zero hours add nothing to either sum
        disp = ((n_hours * sq - s * s) * 1_000_000) // (n_hours * s)
        rows.append((et, n_hours, s, disp))
    rows.sort()
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "n_hours": pa.array([r[1] for r in rows], pa.int64()),
            "n_events": pa.array([r[2] for r in rows], pa.int64()),
            "dispersion_ppm": pa.array(
                [r[3] for r in rows], pa.int64()
            ),
        }
    )


def trailing_distinct_users(events_ds, window_hours: int = 24):
    """Exact trailing-window distinct users per hour — the rolling
    DAU/WAU curve computed exactly: for every hour h present in the
    stream, the count of users with >= 1 event in
    (h - window_hours, h]. EXACT, not a sketch: one user-keyed group
    pass turns each user's active-hour set into the DISTINCT set of
    present anchor hours it covers (vectorized searchsorted ranges +
    np.unique — a user active in several hours of one window counts
    once, deduped inside the group), and a bounded combine keyed by
    the hour domain sums the per-user covers. Output (hour, n_users)
    restricted to hours that actually appear (no zero-fill).

    Scale shape: ONE hash shuffle on user_id (the sessionize key) over
    distinct (user, hour) partials; per-group output is bounded by the
    hour domain; the count is the bounded combine. (The first cut ran
    a second corpus-sized (user, window) distinct shuffle — 28 s at
    sf0.1; this shape is ~5x cheaper.)"""
    import numpy as np
    import pandas as pd

    import ray

    from ray.data.aggregate import Max

    from autoner_ray.stages.combine import bounded_key_sum

    _uh_schema = pa.schema(
        [("user_id", pa.int64()), ("hour", pa.timestamp("us"))]
    )

    def user_hours(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _uh_schema.empty_table()
        hour = pc.floor_temporal(t["ts"], unit="hour")
        out = pa.table(
            {"user_id": t["user_id"], "hour": hour}, schema=_uh_schema
        )
        # per-batch distinct shrinks the shuffle input
        return out.group_by(["user_id", "hour"]).aggregate(
            []
        ).rename_columns(["user_id", "hour"])

    distinct_uh = events_ds.map_batches(
        user_hours, batch_format="pyarrow"
    ).materialize()
    # the hour domain actually present (windows only anchor there)
    present = set(
        r["hour"]
        for r in distinct_uh.groupby("hour")
        .aggregate(Max("user_id", alias_name="_m"))
        .select_columns(["hour"])
        .take_all()
    )
    present_ref = ray.put(np.array(sorted(present), "datetime64[us]"))

    def cover(df: pd.DataFrame) -> pd.DataFrame:
        anchors = ray.get(present_ref)
        hours = np.unique(df["hour"].to_numpy("datetime64[us]"))
        one_h = np.timedelta64(1, "h")
        lo = np.searchsorted(anchors, hours, side="left")
        hi = np.searchsorted(
            anchors, hours + (window_hours - 1) * one_h, side="right"
        )
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return pd.DataFrame(
                {
                    "hour": pd.Series([], dtype="datetime64[us]"),
                    "n_users": pd.Series([], dtype="int64"),
                }
            )
        within = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
        )
        idx = np.repeat(lo, counts) + within
        covered = np.unique(anchors[idx])
        return pd.DataFrame(
            {
                "hour": covered,
                "n_users": np.ones(len(covered), np.int64),
            }
        )

    per_user = distinct_uh.groupby("user_id").map_groups(
        cover, batch_format="pandas"
    )
    return bounded_key_sum(
        per_user, keys=["hour"], sum_cols=["n_users"]
    )


def bot_regularity(events_ds, min_events: int = 5,
                   bot_max_dispersion_ppm: int = 100_000):
    """Bot-likeness census from inter-arrival regularity — the
    traffic-hygiene filter a log pipeline runs before user analytics:
    human arrivals are bursty (index of dispersion of inter-arrival
    gaps >> 0), schedulers are metronomes (dispersion ~ 0). Per user
    with >= ``min_events`` events: the integer-exact variance-to-mean
    ratio of the microsecond inter-arrival gaps, in ppm, and the flag
    ``is_bot = dispersion_ppm <= bot_max_dispersion_ppm``. Output
    (user_id, n_events, iat_dispersion_ppm, is_bot).

    Exact integer identity (the dispersion_index convention): with
    gaps g_i (n of them), S1 = Σg, S2 = Σg², the ratio
    var/mean = (n·S2 − S1²) / (n·S1) and the emitted ppm is its floor
    scale — order-independent, matched by the LAG-window twin.

    Scale shape: one hash shuffle on user_id (the sessionize
    partition key), vectorized diff/moment per group."""
    import numpy as np
    import pandas as pd

    _o_cols = ["user_id", "n_events", "iat_dispersion_ppm", "is_bot"]

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        if len(df) < min_events:
            return pd.DataFrame({c: [] for c in _o_cols}).astype(
                "int64"
            )
        ts = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        g = np.diff(ts)
        n = len(g)
        s1 = int(g.sum())
        s2 = int((g.astype(object) ** 2).sum())  # py ints: no overflow
        disp_ppm = (
            ((n * s2 - s1 * s1) * 1_000_000) // (n * s1) if s1 else 0
        )
        return pd.DataFrame(
            {
                "user_id": [int(df["user_id"].iloc[0])],
                "n_events": [len(df)],
                "iat_dispersion_ppm": [int(disp_ppm)],
                "is_bot": [
                    1 if disp_ppm <= bot_max_dispersion_ppm else 0
                ],
            }
        )

    return (
        events_ds.groupby("user_id")
        .map_groups(per_user, batch_format="pandas")
    )


def funnel_latency_quantiles(events_ds,
                             steps: tuple[str, ...] = ("view", "click",
                                                       "purchase"),
                             ps=(0.25, 0.5, 0.75)):
    """Time-to-convert quantiles for each funnel transition — the
    product-latency companion of :func:`funnel_counts`: among users
    who complete steps[i] -> steps[i+1] under the strict-order funnel
    chaining (earliest steps[0]; then the earliest steps[i+1] STRICTLY
    after the user's step-i completion time), the exact quantiles of
    the elapsed seconds. One row per (transition, p):
    (transition, p_ppm, n_users, q_seconds) — ``quantile_cont``
    interpolation on integer whole-second values, so the value-hash is
    engine-independent (the value_quantiles_by_type convention).

    Scale shape: funnel-type filter + 3-column project BEFORE the one
    user_id hash shuffle; per-user chain timestamps come from the same
    vectorized per-partition min-merge as funnel_counts; elapsed
    seconds histogram partials ride the bounded combine (elapsed
    domain per transition is bounded by the corpus time span in
    seconds)."""
    import numpy as np
    import pandas as pd

    from autoner_ray.stages.combine import bounded_key_sum

    k = len(steps)
    _t_schema = pa.schema(
        [("transition", pa.string()), ("secs", pa.int64()),
         ("n", pa.int64())]
    )

    def per_user_partial(df: pd.DataFrame) -> pd.DataFrame:
        # chain: earliest step0; earliest step_i strictly after chain
        out_t, out_s = [], []
        for _, g in df.groupby("user_id", sort=False):
            cur = None
            for i, st in enumerate(steps):
                ts = g.loc[g["event_type"] == st, "ts"]
                if cur is not None:
                    ts = ts[ts > cur]
                if len(ts) == 0:
                    break
                nxt = ts.min()
                if i > 0:
                    out_t.append(f"{steps[i - 1]}->{st}")
                    out_s.append(
                        int((nxt - cur).total_seconds())
                    )
                cur = nxt
        part = pd.DataFrame({"transition": out_t, "secs": out_s})
        if len(part) == 0:
            return pd.DataFrame(
                {"transition": pd.Series([], dtype=str),
                 "secs": pd.Series([], dtype="int64"),
                 "n": pd.Series([], dtype="int64")}
            )
        return part.groupby(["transition", "secs"],
                            as_index=False).size().rename(
            columns={"size": "n"}
        )

    def keep(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.schema(
                [("user_id", pa.int64()), ("event_type", pa.string()),
                 ("ts", pa.timestamp("us"))]
            ).empty_table()
        mask = pc.is_in(t["event_type"],
                        value_set=pa.array(list(steps), pa.string()))
        return t.select(["user_id", "event_type", "ts"]).filter(mask)

    hist = bounded_key_sum(
        events_ds.map_batches(keep, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(per_user_partial, batch_format="pandas"),
        keys=["transition", "secs"], sum_cols=["n"],
    ).to_pandas()

    # histogram -> exact quantile_cont per transition (driver side:
    # the histogram is bounded by transitions x distinct seconds)
    rows = []
    for trans, g in hist.groupby("transition"):
        g = g.sort_values("secs")
        vals = g["secs"].to_numpy(np.int64)
        cnts = g["n"].to_numpy(np.int64)
        total = int(cnts.sum())
        cum = np.cumsum(cnts)
        for p in ps:
            h = (total - 1) * p
            lo_i = int(np.searchsorted(cum, int(np.floor(h)) + 1))
            hi_i = int(np.searchsorted(cum, int(np.ceil(h)) + 1))
            lo_v, hi_v = float(vals[lo_i]), float(vals[hi_i])
            q = lo_v + (h - np.floor(h)) * (hi_v - lo_v)
            rows.append(
                (trans, int(round(p * 1_000_000)), total, round(q, 6))
            )
    rows.sort()
    return pa.table(
        {
            "transition": pa.array([r[0] for r in rows], pa.string()),
            "p_ppm": pa.array([r[1] for r in rows], pa.int64()),
            "n_users": pa.array([r[2] for r in rows], pa.int64()),
            "q_seconds": pa.array([r[3] for r in rows], pa.float64()),
        }
    )


def cohort_ltv(events_ds):
    """Cohort lifetime-value curve — the value-weighted companion of
    the retention matrix: users cohort by their FIRST active day;
    for each (cohort_day, day_offset) the per-cohort cumulative value
    in integer cents up to that offset. Output (cohort_day, offset,
    n_cohort_users, cum_value_cents) for offsets that have activity.

    Scale shape: one user-keyed group pass emits (cohort, offset,
    cents) partials per user (vectorized inside the group); the
    bounded combine keys on the (days x offsets) grid; the cumulative
    fold runs driver-side over that bounded grid (the retention
    convention). Cohort sizes ride the same partials under offset 0's
    user count."""
    import numpy as np
    import pandas as pd

    from autoner_ray.stages.combine import bounded_key_sum

    _p_schema = pa.schema(
        [("cohort_day", pa.timestamp("us")), ("offset", pa.int64()),
         ("cents", pa.int64()), ("users", pa.int64())]
    )

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        day = df["ts"].dt.floor("D")
        c0 = day.min()
        off = ((day - c0).dt.days).to_numpy(np.int64)
        cents = np.floor(
            df["value"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({"offset": off, "cents": cents}).groupby(
            "offset", as_index=False
        )["cents"].sum()
        g["cohort_day"] = c0
        g["users"] = 0
        # cohort membership counts once, on the user's offset-0 row
        g.loc[g["offset"] == 0, "users"] = 1
        if (g["offset"] == 0).sum() == 0:
            g = pd.concat(
                [g, pd.DataFrame({"offset": [0], "cents": [0],
                                  "cohort_day": [c0], "users": [1]})],
                ignore_index=True,
            )
        return g[["cohort_day", "offset", "cents", "users"]]

    grid = bounded_key_sum(
        events_ds.groupby("user_id").map_groups(
            per_user, batch_format="pandas"
        ),
        keys=["cohort_day", "offset"], sum_cols=["cents", "users"],
    ).to_pandas()

    rows = []
    for cday, g in grid.groupby("cohort_day"):
        g = g.sort_values("offset")
        n_users = int(g["users"].sum())
        cum = 0
        for _, r in g.iterrows():
            cum += int(r["cents"])
            rows.append((cday, int(r["offset"]), n_users, cum))
    rows.sort(key=lambda r: (str(r[0]), r[1]))
    return pa.table(
        {
            "cohort_day": pa.array(
                [r[0] for r in rows], pa.timestamp("us")
            ),
            "offset": pa.array([r[1] for r in rows], pa.int64()),
            "n_cohort_users": pa.array([r[2] for r in rows], pa.int64()),
            "cum_value_cents": pa.array([r[3] for r in rows], pa.int64()),
        }
    )
