"""Versions, version ranges, and resource keys."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.core import (
    ResourceKey,
    UNVERSIONED,
    Version,
    VersionRange,
    select_versions,
)
from repro.core.errors import ResourceModelError

versions = st.lists(
    st.integers(min_value=0, max_value=99), min_size=1, max_size=4
).map(lambda parts: Version(tuple(parts)))


class TestVersion:
    def test_parse_simple(self):
        assert Version.parse("6.0.18").parts == (6, 0, 18)

    def test_parse_single_component(self):
        assert Version.parse("7").parts == (7,)

    def test_parse_strips_whitespace(self):
        assert Version.parse(" 1.2 ") == Version((1, 2))

    @pytest.mark.parametrize("bad", ["", "a.b", "1.", ".5", "1..2", "1.2-rc1"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ResourceModelError):
            Version.parse(bad)

    def test_ordering(self):
        assert Version.parse("5.5") < Version.parse("6.0.18")
        assert Version.parse("6.0.18") < Version.parse("6.0.29")
        assert Version.parse("6.0.29") < Version.parse("6.1")

    def test_trailing_zeros_equal(self):
        assert Version.parse("6.0") == Version.parse("6.0.0")
        assert hash(Version.parse("6.0")) == hash(Version.parse("6.0.0"))

    def test_padding_in_comparison(self):
        assert Version.parse("6.0") < Version.parse("6.0.18")
        assert not Version.parse("6.0.18") < Version.parse("6.0")

    def test_str_roundtrip(self):
        assert str(Version.parse("10.04")) == "10.4"  # integers, not text

    def test_unversioned(self):
        assert UNVERSIONED.is_unversioned()
        assert not Version.parse("1").is_unversioned()

    @given(versions, versions)
    def test_total_order(self, a, b):
        assert (a < b) + (b < a) + (a == b) == 1

    @given(versions, versions, versions)
    def test_transitivity(self, a, b, c):
        if a < b and b < c:
            assert a < c

    @given(versions)
    def test_hash_consistent_with_eq(self, v):
        padded = Version(v.parts + (0, 0))
        assert v == padded
        assert hash(v) == hash(padded)


class TestVersionRange:
    def test_default_half_open(self):
        r = VersionRange(Version.parse("5.5"), Version.parse("6.0.29"))
        assert r.contains(Version.parse("5.5"))
        assert r.contains(Version.parse("6.0.18"))
        assert not r.contains(Version.parse("6.0.29"))
        assert not r.contains(Version.parse("5.4"))

    def test_unbounded_low(self):
        r = VersionRange(hi=Version.parse("2.0"))
        assert r.contains(Version.parse("0.1"))
        assert not r.contains(Version.parse("2.0"))

    def test_unbounded_high(self):
        r = VersionRange(lo=Version.parse("2.0"))
        assert r.contains(Version.parse("99"))
        assert r.contains(Version.parse("2.0"))

    def test_exclusive_low(self):
        r = VersionRange(lo=Version.parse("1.0"), lo_inclusive=False)
        assert not r.contains(Version.parse("1.0"))
        assert r.contains(Version.parse("1.0.1"))

    def test_inclusive_high(self):
        r = VersionRange(hi=Version.parse("1.0"), hi_inclusive=True)
        assert r.contains(Version.parse("1.0"))

    def test_str(self):
        r = VersionRange(Version.parse("5.5"), Version.parse("6.0.29"))
        assert str(r) == "[5.5, 6.0.29)"

    @given(versions, versions, versions)
    def test_containment_consistent_with_order(self, lo, hi, v):
        r = VersionRange(lo=lo, hi=hi)
        if r.contains(v):
            assert not v < lo
            assert v < hi


class TestSelectVersions:
    def test_filters_and_sorts(self):
        pool = [Version.parse(t) for t in ["6.1", "5.5", "6.0.18", "6.0.29"]]
        r = VersionRange(Version.parse("5.5"), Version.parse("6.0.29"))
        assert select_versions(pool, r) == [
            Version.parse("5.5"),
            Version.parse("6.0.18"),
        ]

    def test_deduplicates(self):
        pool = [Version.parse("1.0"), Version.parse("1.0.0")]
        r = VersionRange(lo=Version.parse("0.1"))
        assert len(select_versions(pool, r)) == 1


class TestResourceKey:
    def test_parse_name_and_version(self):
        key = ResourceKey.parse("Tomcat 6.0.18")
        assert key.name == "Tomcat"
        assert key.version == Version.parse("6.0.18")

    def test_parse_name_with_spaces(self):
        key = ResourceKey.parse("Jasper Reports Server 4.2")
        assert key.name == "Jasper Reports Server"
        assert key.version == Version.parse("4.2")

    def test_parse_unversioned(self):
        key = ResourceKey.parse("Server")
        assert key.name == "Server"
        assert key.version.is_unversioned()

    def test_parse_trailing_word_not_version(self):
        key = ResourceKey.parse("Feature Collector")
        assert key.name == "Feature Collector"
        assert key.version.is_unversioned()

    def test_display_roundtrip(self):
        for text in ["Tomcat 6.0.18", "Server", "Mac-OSX 10.6"]:
            assert ResourceKey.parse(text).display() == text

    def test_empty_rejected(self):
        with pytest.raises(ResourceModelError):
            ResourceKey.parse("  ")

    def test_keys_are_ordered(self):
        a = ResourceKey.parse("Tomcat 5.5")
        b = ResourceKey.parse("Tomcat 6.0.18")
        assert a < b

    def test_keys_hashable(self):
        assert len({ResourceKey.parse("A 1"), ResourceKey.parse("A 1")}) == 1

    def test_parse_returns_one_object_per_text(self):
        assert ResourceKey.parse("Tomcat 6.0.18") is ResourceKey.parse(
            "Tomcat 6.0.18"
        )
        for _ in range(2):
            with pytest.raises(ResourceModelError):
                ResourceKey.parse("  ")

    def test_trailing_zero_versions_equal_and_hash_equal(self):
        short = ResourceKey.parse("Tomcat 6.0")
        long = ResourceKey("Tomcat", Version((6, 0, 0)))
        assert short == long
        assert hash(short) == hash(long)
        assert {short: "found"}[long] == "found"
        assert short != ResourceKey.parse("Tomcat 6.0.1")
        assert short != ResourceKey.parse("Tomcat6 6.0")

    @given(st.lists(
        st.tuples(st.sampled_from(["A", "B", "Tomcat", "Tomcat 6"]), versions),
        max_size=12,
    ))
    def test_sort_order_is_name_then_padded_version(self, pairs):
        keys = [ResourceKey(name, version) for name, version in pairs]

        def reference(key):
            return key.name, key.version.parts + (0,) * (
                8 - len(key.version.parts)
            )

        assert sorted(keys) == sorted(keys, key=reference)

    def test_pickled_under_another_hash_seed_still_found(self):
        """The cached hash depends on the string hash seed, so it must
        not travel with the pickle: keys pickled by a process with a
        different ``PYTHONHASHSEED`` are looked up in a dict of keys
        built here."""
        texts = ["Tomcat 6.0.18", "Server", "Mac-OSX 10.6", "JRE 1.6"]
        script = (
            "import pickle, sys\n"
            "from repro.core.keys import ResourceKey\n"
            f"keys = [ResourceKey.parse(t) for t in {texts!r}]\n"
            "sys.stdout.buffer.write(pickle.dumps((keys, hash(keys[0]))))\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(
            Path(repro.__file__).resolve().parents[1]
        ))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            check=True, timeout=60,
        )
        keys, child_hash = pickle.loads(done.stdout)
        fresh = {ResourceKey.parse(text): text for text in texts}
        assert child_hash != hash(ResourceKey.parse(texts[0]))
        for key, text in zip(keys, texts):
            assert fresh[key] == text
            assert hash(key) == hash(ResourceKey.parse(text))
