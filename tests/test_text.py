"""Parity tests for the tokenizer / string helpers (src/utils.h), and for
the Arrow tokenize stage against its per-string reference."""

import string
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from autoner_ray.functions.text import (
    SEPARATORS,
    is_separator_char,
    is_separator_token,
    is_real_separator,
    normalize_surface,
    simple_tokenize,
    simple_tokenize_nonsep,
    simple_tokenize_slow,
    split_by,
    strip_cpp,
    to_lower_ascii,
    to_upper_ascii,
)

TEXTISH = st.text(
    alphabet=string.ascii_letters + string.digits + SEPARATORS + " \t\n",
    max_size=200,
)


@settings(max_examples=300, deadline=None)
@given(TEXTISH)
def test_tokenize_roundtrip_and_twin(s):
    toks = simple_tokenize(s)
    # length-preservation assert of src/utils.h:220-227, by construction
    assert "".join(toks) == s
    assert toks == simple_tokenize_slow(s)
    for t in toks:
        if len(t) > 1:
            assert not any(is_separator_char(c) for c in t)


def test_tokenize_examples():
    assert simple_tokenize("a-b c") == ["a", "-", "b", " ", "c"]
    assert simple_tokenize("(x)") == ["(", "x", ")"]
    assert simple_tokenize("") == []
    assert simple_tokenize("ab") == ["ab"]
    assert simple_tokenize("a\nb") == ["a", "\n", "b"]


def test_tokenize_nonsep():
    assert simple_tokenize_nonsep("Foo-bar Baz") == ["foo", "bar", "baz"]
    assert simple_tokenize_nonsep("Foo\nBar", keep_capital=True) == [
        "Foo",
        "\n",
        "Bar",
    ]


def test_split_by_drops_empty():
    # src/utils.h:72-90 — consecutive separators collapse
    assert split_by("a\t\tb", "\t") == ["a", "b"]
    assert split_by("\ta\t", "\t") == ["a"]
    assert split_by("", "\t") == []
    assert split_by(",,", ",") == []


def test_strip_cpp_quirks():
    # src/utils.h:109-119 — strict l<r keeps single chars and final space
    assert strip_cpp("  ab  ") == "ab"
    assert strip_cpp(" ") == " "
    assert strip_cpp("   ") == " "
    assert strip_cpp("a") == "a"
    assert strip_cpp("") == ""
    assert strip_cpp(" a") == "a"


def test_ascii_case_only():
    assert to_upper_ascii("aBc-ü") == "ABC-ü"  # non-ASCII untouched (C locale)
    assert to_lower_ascii("AbC-Ü") == "abc-Ü"


def test_separator_predicates():
    assert is_separator_token("-")
    assert is_separator_token(" ")
    assert not is_separator_token("--")
    assert is_real_separator("\n")
    assert not is_real_separator("-")


def test_normalize_surface():
    assert normalize_surface("  Hash   Join ") == "hash join"


def test_simple_json_to_list():
    from autoner_ray.functions.text import simple_json_to_list

    assert simple_json_to_list('["ab", "c d", ""]') == ["ab", "c d", ""]
    assert simple_json_to_list("no quotes") == []
    import pytest

    with pytest.raises(ValueError):
        simple_json_to_list('"unbalanced')


def test_generate_signature():
    from autoner_ray.functions.text import generate_signature

    assert generate_signature("New York City") == "nyc"
    assert generate_signature("  spaced   Out ") == "so"
    assert generate_signature("") == ""
    # non-ASCII first char stays (C-locale tolower is ASCII-only)
    assert generate_signature("Ärzte Berlin") == "Äb"


def test_sqr_sign():
    from autoner_ray.functions.text import sign, sqr

    assert sqr(3.0) == 9.0
    assert sign(5.0) == 1 and sign(-5.0) == -1
    assert sign(1e-9) == 0 and sign(-1e-9) == 0


# every separator, the C whitespace chars, and every code point where
# str.isspace() is true (what str.strip() removes)
_PY_SPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
PAGE_TEXT = st.one_of(
    st.none(),
    st.text(
        alphabet=st.sampled_from(
            list(string.ascii_letters[:6] + "09é_")
            + list(SEPARATORS)
            + list(" \t\n\v\f\r")
            + _PY_SPACE
        ),
        max_size=60,
    ),
    st.text(alphabet=st.sampled_from(_PY_SPACE), max_size=8),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(PAGE_TEXT, max_size=8))
def test_tokenize_pages_batch_matches_reference(texts):
    import pyarrow as pa

    from autoner_ray.sources.pages import URL_PREFIX
    from autoner_ray.stages.tokenize import (
        sentence_token_stream,
        split_sentences,
        tokenize_pages_batch,
    )

    # every third url carries no doc id (doc_id -1)
    urls = [f"{URL_PREFIX}{i}" if i % 3 else "x" for i in range(len(texts))]
    got = tokenize_pages_batch(
        pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "text": pa.array(texts, pa.string()),
            }
        )
    ).to_pylist()
    want = [
        dict(
            url=url,
            doc_id=i if i % 3 else -1,
            sent_id=sid,
            n_tokens=len(toks),
            tokens=toks,
        )
        for i, (url, text) in enumerate(zip(urls, texts))
        for sid, sent in enumerate(split_sentences(text or ""))
        if (toks := sentence_token_stream(sent))
    ]
    assert got == want


def test_link_targets_arithmetic():
    from autoner_ray.sources.pages import link_targets

    assert link_targets(0) == [1]            # 0//3 is a self-loop
    assert link_targets(1) == [2, 3, 0]
    assert link_targets(9) == [10, 19, 3]
    for i in range(200):
        ts = link_targets(i)
        assert i not in ts and len(ts) == len(set(ts))


def test_links_do_not_disturb_text_extraction():
    # the generated pages carry anchors; first-paragraph text must survive
    from autoner_ray.sources.pages import make_html
    from autoner_ray.stages.extract import extract_text_from_html

    text = 'x <a href="https://other.example/">inline</a> & y'
    assert extract_text_from_html(make_html(7, text)) == text
