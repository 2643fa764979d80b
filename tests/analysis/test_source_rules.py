"""AST source-rule tests over synthetic packages under tmp_path."""

import textwrap

from repro.analysis.engine import Analyzer, repo_root
from repro.analysis.findings import Severity


def write_module(tmp_path, dotted, text):
    """Materialise ``dotted`` (a module path) with its package chain."""
    parts = dotted.split(".")
    directory = tmp_path
    for package in parts[:-1]:
        directory = directory / package
        directory.mkdir(exist_ok=True)
        (directory / "__init__.py").touch()
    path = directory / f"{parts[-1]}.py"
    path.write_text(textwrap.dedent(text))
    return path


def lint(tmp_path):
    return Analyzer().analyze_sources(tmp_path / "repro", base=tmp_path)


class TestWallClock:
    def test_time_call_in_sim_flagged(self, tmp_path):
        write_module(tmp_path, "repro.sim.bad", """\
            import time

            def stamp():
                return time.time()
            """)
        findings = lint(tmp_path)
        assert {finding.code for finding in findings} == {"SRC101"}
        assert {finding.line for finding in findings} == {1, 4}

    def test_datetime_now_flagged(self, tmp_path):
        write_module(tmp_path, "repro.obs.bad", """\
            import datetime

            def stamp():
                return datetime.datetime.now()
            """)
        findings = lint(tmp_path)
        assert [finding.code for finding in findings] == ["SRC101"]
        assert findings[0].line == 4

    def test_from_time_import_flagged(self, tmp_path):
        write_module(tmp_path, "repro.analysis.bad", """\
            from time import monotonic
            """)
        findings = lint(tmp_path)
        assert [finding.code for finding in findings] == ["SRC101"]

    def test_comments_and_strings_do_not_trip(self, tmp_path):
        write_module(tmp_path, "repro.sim.fine", '''\
            # time.time() is banned here
            DOC = "never call time.time() in the simulator"

            def stamp(clock):
                return clock()
            ''')
        assert lint(tmp_path) == []

    def test_other_packages_may_use_the_clock(self, tmp_path):
        write_module(tmp_path, "repro.core.fine", """\
            import time

            def stamp():
                return time.time()
            """)
        assert lint(tmp_path) == []


class TestBareExcept:
    def test_bare_except_flagged(self, tmp_path):
        write_module(tmp_path, "repro.core.bad", """\
            def swallow():
                try:
                    return 1
                except:
                    return None
            """)
        findings = lint(tmp_path)
        assert [finding.code for finding in findings] == ["SRC102"]
        assert findings[0].line == 4

    def test_typed_except_is_fine(self, tmp_path):
        write_module(tmp_path, "repro.core.fine", """\
            def precise():
                try:
                    return 1
                except ValueError:
                    return None
            """)
        assert lint(tmp_path) == []


class TestRestErrorCodes:
    def test_camel_case_code_flagged(self, tmp_path):
        write_module(tmp_path, "repro.core.rest", """\
            def handler(respond):
                respond(code="NotFound")
                return {"code": "Bad-Code"}
            """)
        findings = lint(tmp_path)
        assert [finding.code for finding in findings] == ["SRC103", "SRC103"]

    def test_snake_case_code_is_fine(self, tmp_path):
        write_module(tmp_path, "repro.core.rest", """\
            def handler(respond):
                respond(code="not_found")
                return {"code": "internal"}
            """)
        assert lint(tmp_path) == []

    def test_rule_only_applies_to_rest_module(self, tmp_path):
        write_module(tmp_path, "repro.core.other", """\
            def handler(respond):
                respond(code="NotFound")
            """)
        assert lint(tmp_path) == []


class TestUnauditedStateChange:
    def test_direct_mutation_without_audit_flagged(self, tmp_path):
        write_module(tmp_path, "repro.core.service", """\
            class PalaemonService:
                def sneak(self, name):
                    self.store.put("policies", name, {})
            """)
        findings = lint(tmp_path)
        assert [finding.code for finding in findings] == ["SRC104"]
        assert "sneak" in findings[0].message

    def test_transitive_mutation_without_audit_flagged(self, tmp_path):
        write_module(tmp_path, "repro.core.service", """\
            class PalaemonService:
                def outer(self, name):
                    self._inner(name)

                def _inner(self, name):
                    self.store.delete("policies", name)
            """)
        findings = lint(tmp_path)
        assert [finding.code for finding in findings] == ["SRC104"]
        assert "outer" in findings[0].message

    def test_audited_mutation_is_fine(self, tmp_path):
        write_module(tmp_path, "repro.core.service", """\
            class PalaemonService:
                def honest(self, name):
                    self.store.put("policies", name, {})
                    self.telemetry.audit("policy.create", policy=name)
            """)
        assert lint(tmp_path) == []

    def test_transitive_audit_counts(self, tmp_path):
        write_module(tmp_path, "repro.core.service", """\
            class PalaemonService:
                def outer(self, name):
                    self.store.put("policies", name, {})
                    self._record(name)

                def _record(self, name):
                    self.telemetry.audit("policy.create", policy=name)
            """)
        assert lint(tmp_path) == []

    def test_read_only_method_is_fine(self, tmp_path):
        write_module(tmp_path, "repro.core.service", """\
            class PalaemonService:
                def peek(self, name):
                    return self.store.get("policies", name)
            """)
        assert lint(tmp_path) == []


class TestWholeDocumentFlush:
    def test_whole_document_dump_flagged(self, tmp_path):
        write_module(tmp_path, "repro.core.bad", """\
            import pickle

            class Store:
                def _flush(self):
                    return pickle.dumps(self._data)
            """)
        findings = lint(tmp_path)
        assert [finding.code for finding in findings] == ["SRC106"]
        assert findings[0].line == 5

    def test_legacy_helper_flagged(self, tmp_path):
        write_module(tmp_path, "repro.core.bad", """\
            import pickle

            class Store:
                def _flush_legacy_monolithic(self):
                    return pickle.dumps(self._data)
            """)
        findings = lint(tmp_path)
        assert [(finding.code, finding.line) for finding in findings] == [
            ("SRC106", 5)]

    def test_migration_helper_flagged(self, tmp_path):
        write_module(tmp_path, "repro.core.bad", """\
            import pickle

            class Store:
                def _migrate_format(self):
                    def seal():
                        return pickle.dumps(self._data)
                    return seal()
            """)
        findings = lint(tmp_path)
        assert [(finding.code, finding.line) for finding in findings] == [
            ("SRC106", 6)]

    def test_partial_dumps_are_fine(self, tmp_path):
        write_module(tmp_path, "repro.core.fine", """\
            import pickle

            class Store:
                def _flush(self):
                    return pickle.dumps(self._data["tables"]["tags"])
            """)
        assert lint(tmp_path) == []


class TestServiceTableTouch:
    def test_touch_in_service_flagged(self, tmp_path):
        write_module(tmp_path, "repro.core.service", """\
            class PalaemonService:
                def update_tag(self, name, tag):
                    self.store.get("state", name).expected_tag = tag
                    self.store.touch("state")
                    self.telemetry.audit("tag.update", policy=name)
            """)
        findings = lint(tmp_path)
        assert [(finding.code, finding.line) for finding in findings] == [
            ("SRC110", 4)]

    def test_put_in_service_and_touch_elsewhere_are_fine(self, tmp_path):
        write_module(tmp_path, "repro.core.service", """\
            class PalaemonService:
                def update_tag(self, name, tag):
                    states = self.store.get("state", name)
                    states.expected_tag = tag
                    self.store.put("state", name, states)
                    self.telemetry.audit("tag.update", policy=name)
            """)
        write_module(tmp_path, "repro.benchlib.seed", """\
            def seed(service):
                service.store.touch("state")
            """)
        assert lint(tmp_path) == []


class TestRawEndpointTraffic:
    def test_hand_rolled_channel_flagged(self, tmp_path):
        write_module(tmp_path, "repro.core.bad", """\
            def fetch(endpoint, peer, request):
                endpoint.send(peer, request, size_bytes=512,
                              reply_to=endpoint)
                endpoint.send(peer, request)
                endpoint.send(peer, reply_to=endpoint)
                message = yield endpoint.receive()
                return message
            """)
        findings = lint(tmp_path)
        assert [(finding.code, finding.line) for finding in findings] == [
            ("SRC108", 2), ("SRC108", 4), ("SRC108", 5), ("SRC108", 6)]

    def test_sim_and_tls_own_the_wire(self, tmp_path):
        body = """\
            def serve(endpoint, peer):
                message = yield endpoint.receive()
                endpoint.send(peer, message, size_bytes=64)
            """
        write_module(tmp_path, "repro.sim.fabric", body)
        write_module(tmp_path, "repro.tls.wire", body)
        assert lint(tmp_path) == []

    def test_generator_send_and_filtered_receive_are_fine(self, tmp_path):
        write_module(tmp_path, "repro.core.fine", """\
            def drive(generator, mailbox):
                generator.send(None)
                return mailbox.receive(timeout=1.0)
            """)
        assert lint(tmp_path) == []


class TestRetryWrappers:
    def test_wrapper_and_retry_knob_flagged(self, tmp_path):
        write_module(tmp_path, "repro.core.bad", """\
            class Client:
                def fetch_with_retry(self, name):
                    return name

            def attest(client, *, retry_policy=None):
                return client
            """)
        findings = [finding for finding in lint(tmp_path)
                    if finding.code == "SRC109"]
        assert [(finding.code, finding.line) for finding in findings] == [
            ("SRC109", 2), ("SRC109", 5)]

    def test_call_site_composition_is_fine(self, tmp_path):
        write_module(tmp_path, "repro.core.fine", """\
            from repro.sim.retry import RetryPolicy

            def fetch(simulator, client, rng):
                return RetryPolicy(max_attempts=3).call(
                    simulator, lambda: client.fetch(), rng,
                    operation="fetch")
            """)
        write_module(tmp_path, "repro.sim.retry", """\
            def call_with_retry(attempt, retry_policy):
                return retry_policy.call(attempt)
            """)
        assert lint(tmp_path) == []


class TestBroadExcept:
    def test_except_exception_flagged(self, tmp_path):
        write_module(tmp_path, "repro.core.bad", """\
            def swallow():
                try:
                    return 1
                except Exception:
                    return None
            """)
        findings = lint(tmp_path)
        assert [finding.code for finding in findings] == ["SRC105"]
        assert findings[0].line == 4

    def test_exception_in_tuple_flagged(self, tmp_path):
        write_module(tmp_path, "repro.core.bad", """\
            def swallow():
                try:
                    return 1
                except (ValueError, Exception):
                    return None
            """)
        findings = lint(tmp_path)
        assert [finding.code for finding in findings] == ["SRC105"]

    def test_dispatch_boundary_is_exempt(self, tmp_path):
        write_module(tmp_path, "repro.core.dispatch", """\
            def handle():
                try:
                    return 1
                except Exception:
                    return None
            """)
        assert lint(tmp_path) == []

    def test_rest_is_no_longer_exempt(self, tmp_path):
        # The broad-catch boundary moved into the dispatch pipeline; the
        # REST codec itself must catch precisely like everyone else.
        write_module(tmp_path, "repro.core.rest", """\
            def handle():
                try:
                    return 1
                except Exception:
                    return None
            """)
        findings = lint(tmp_path)
        assert [f.code for f in findings] == ["SRC105"]

    def test_typed_catches_are_fine(self, tmp_path):
        write_module(tmp_path, "repro.core.fine", """\
            def precise():
                try:
                    return 1
                except (ValueError, KeyError):
                    return None
            """)
        assert lint(tmp_path) == []


class TestEngineBehaviour:
    def test_syntax_error_becomes_src100(self, tmp_path):
        write_module(tmp_path, "repro.core.broken", """\
            def oops(:
            """)
        findings = lint(tmp_path)
        assert [finding.code for finding in findings] == ["SRC100"]
        assert findings[0].severity is Severity.CRITICAL

    def test_code_filter(self, tmp_path):
        write_module(tmp_path, "repro.sim.bad", """\
            import time

            def swallow():
                try:
                    return 1
                except:
                    return None
            """)
        findings = [finding for finding in lint(tmp_path)
                    if finding.code == "SRC102"]
        assert [finding.code for finding in findings] == ["SRC102"]


class TestRepoIsClean:
    def test_shipping_tree_has_no_findings(self):
        root = repo_root()
        findings = Analyzer().analyze_sources(root / "src" / "repro",
                                              base=root)
        assert findings == [], "\n".join(
            f"{finding.location}: [{finding.code}] {finding.message}"
            for finding in findings)
