"""Hypothesis property tests for the PR-4 serving invariants.

:class:`repro.api.Query` — wire round-trip (``to_dict``/``from_dict``),
JSON round-trip, and ``cache_key`` invariants (post-filters excluded,
defaults resolve like explicit values, spellings normalise) under random
valid field combinations. (The index a worker serves from is the snapshot
codec's; its decode ≡ whole-build property lives in
``test_storage_properties.py``.)
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Query
from repro.core.search import ALL_METHODS
from repro.errors import InvalidInputError

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ----------------------------------------------------------------------
# Query strategies: every combination a client could legally send
# ----------------------------------------------------------------------
vertices = st.one_of(
    st.integers(min_value=0, max_value=10_000),
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
        min_size=1,
        max_size=8,
    ),
)

#: Casing variants the spelling table must collapse.
methods = st.one_of(
    st.none(),
    st.sampled_from(ALL_METHODS).flatmap(
        lambda m: st.sampled_from([m, m.lower(), m.upper()])
    ),
)

cohesions = st.one_of(st.none(), st.sampled_from(["k-core", "k-truss", "k-clique"]))


@st.composite
def queries(draw):
    return Query(
        vertex=draw(vertices),
        k=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=50))),
        method=draw(methods),
        cohesion=draw(cohesions),
        limit=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=20))),
        min_size=draw(st.integers(min_value=1, max_value=10)),
    )


class TestQueryProperties:
    @SETTINGS
    @given(query=queries())
    def test_dict_round_trip_is_lossless(self, query):
        assert Query.from_dict(query.to_dict()) == query

    @SETTINGS
    @given(query=queries())
    def test_json_round_trip_is_lossless(self, query):
        assert Query.from_dict(json.loads(json.dumps(query.to_dict()))) == query

    @SETTINGS
    @given(query=queries())
    def test_cache_key_excludes_post_filters(self, query):
        stripped = query.replace(limit=None, min_size=1)
        assert stripped.cache_key() == query.cache_key()

    @SETTINGS
    @given(query=queries())
    def test_cache_key_resolves_defaults_like_explicit_values(self, query):
        resolved = query.resolve()
        assert None not in (resolved.k, resolved.method)
        assert resolved.resolve() is resolved  # idempotent, and free
        assert resolved.cache_key() == query.cache_key()
        # and against arbitrary session defaults, not just the paper's
        session = dict(default_k=9, default_method="basic")
        assert query.cache_key(**session) == query.resolve(**session).cache_key()

    @SETTINGS
    @given(query=queries())
    def test_method_spelling_never_reaches_the_key(self, query):
        if query.method is None:
            return
        for variant in (query.method.lower(), query.method.upper()):
            assert query.replace(method=variant) == query
            assert query.replace(method=variant).cache_key() == query.cache_key()

    @SETTINGS
    @given(query=queries())
    def test_replace_identity_and_builder_equivalence(self, query):
        assert query.replace() == query
        built = Query.vertex(query.vertex).k(query.k).method(query.method)
        built = built.cohesion(query.cohesion).limit(query.limit)
        built = built.min_size(query.min_size).build()
        # builder can't set k=None explicitly; normalise via replace
        assert built.replace(k=query.k) == query

    @SETTINGS
    @given(query=queries(), junk=st.text(min_size=1, max_size=10))
    def test_unknown_keys_rejected(self, query, junk):
        payload = query.to_dict()
        if junk in payload:
            return
        payload[junk] = 1
        with pytest.raises(InvalidInputError):
            Query.from_dict(payload)

