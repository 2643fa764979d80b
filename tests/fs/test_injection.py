"""Tests for transparent secret injection into config files."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import PolicyError
from repro.fs.injection import InjectedFileView, find_variables, inject_secrets


class TestFindVariables:
    def test_finds_variables(self):
        content = b"password = $$PALAEMON$DB_PASSWORD$$\nkey = $$PALAEMON$TLS_KEY$$"
        assert find_variables(content) == ["DB_PASSWORD", "TLS_KEY"]

    def test_none_found(self):
        assert find_variables(b"plain config, no secrets") == []

    def test_malformed_markers_ignored(self):
        assert find_variables(b"$$PALAEMON$lowercase$$ $$PALAEMON$$") == []

    def test_repeat_variable_listed_each_time(self):
        content = b"$$PALAEMON$K$$ and again $$PALAEMON$K$$"
        assert find_variables(content) == ["K", "K"]


class TestInjectSecrets:
    def test_basic_replacement(self):
        content = b"password = $$PALAEMON$DB_PASSWORD$$"
        result = inject_secrets(content, {"DB_PASSWORD": b"hunter2"})
        assert result == b"password = hunter2"

    def test_multiple_and_repeated(self):
        content = b"a=$$PALAEMON$X$$ b=$$PALAEMON$Y$$ c=$$PALAEMON$X$$"
        result = inject_secrets(content, {"X": b"1", "Y": b"2"})
        assert result == b"a=1 b=2 c=1"

    def test_missing_secret_raises(self):
        with pytest.raises(PolicyError, match="UNDEFINED"):
            inject_secrets(b"$$PALAEMON$UNDEFINED$$", {})

    def test_no_variables_passthrough(self):
        content = b"[section]\nvalue = 42\n"
        assert inject_secrets(content, {}) == content

    def test_binary_secret_values(self):
        result = inject_secrets(b"key=$$PALAEMON$K$$", {"K": b"\x00\xff\x10"})
        assert result == b"key=\x00\xff\x10"

    def test_extra_secrets_ignored(self):
        result = inject_secrets(b"plain", {"UNUSED": b"v"})
        assert result == b"plain"

    @given(st.binary(max_size=200).filter(lambda b: b"$$PALAEMON$" not in b))
    def test_no_marker_means_identity(self, content):
        assert inject_secrets(content, {"K": b"v"}) == content


class TestInjectedFileView:
    def test_reads_served_from_memory(self):
        view = InjectedFileView("/etc/app.conf", inject_secrets(
            b"secret=$$PALAEMON$API_KEY$$", {"API_KEY": b"abc123"}))
        assert view.read() == b"secret=abc123"
        assert view.read() == b"secret=abc123"
        assert view.content == b"secret=abc123"
