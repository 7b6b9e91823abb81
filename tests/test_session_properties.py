"""Hypothesis property pins for the URL canonicalizer's invariants
(pure kernel, no Ray)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from autoner_ray.stages.urltools import canonicalize_url

_scheme = st.sampled_from(["http", "https", "HTTP", "HttpS"])
_host = st.from_regex(r"[A-Za-z][A-Za-z0-9.-]{0,15}", fullmatch=True)
_path = st.from_regex(r"(/[A-Za-z0-9._~-]{0,8}){0,4}/?", fullmatch=True)
_key = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
_val = st.from_regex(r"[A-Za-z0-9_-]{0,6}", fullmatch=True)
_query = st.lists(st.tuples(_key, _val), max_size=5)


@st.composite
def _urls(draw):
    scheme = draw(_scheme)
    host = draw(_host)
    port = draw(st.sampled_from(["", ":80", ":443", ":8080"]))
    path = draw(_path)
    q = draw(_query)
    qs = "&".join(f"{k}={v}" for k, v in q)
    frag = draw(st.sampled_from(["", "#top", "#a-b"]))
    return f"{scheme}://{host}{port}{path}" + (f"?{qs}" if qs else "") + frag


@settings(max_examples=200, deadline=None)
@given(_urls())
def test_canonicalize_idempotent(url):
    once = canonicalize_url(url)
    assert canonicalize_url(once) == once


@settings(max_examples=100, deadline=None)
@given(_urls())
def test_canonicalize_invariants(url):
    out = canonicalize_url(url)
    assert "#" not in out                      # fragment gone
    assert "utm_" not in out.split("?")[0]     # never invents params
    scheme = out.split("://", 1)[0]
    assert scheme == scheme.lower()
    # default ports stripped
    rest = out.split("://", 1)[1]
    host = rest.split("/", 1)[0]
    if scheme == "http":
        assert not host.endswith(":80")
    if scheme == "https":
        assert not host.endswith(":443")


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(_key, _val), min_size=1, max_size=5, unique=True)
)
def test_canonicalize_query_order_invariant(params):
    import random

    base = "https://a.b/p?"
    qs1 = "&".join(f"{k}={v}" for k, v in params)
    shuffled = params[:]
    random.Random(0).shuffle(shuffled)
    qs2 = "&".join(f"{k}={v}" for k, v in shuffled)
    assert canonicalize_url(base + qs1) == canonicalize_url(base + qs2)
