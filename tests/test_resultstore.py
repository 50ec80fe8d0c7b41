"""Tests for the persistent result store and its runner integration."""

import json

import pytest

from repro.harness import (
    ResultStore,
    clear_cache,
    run_experiment,
    set_result_store,
    simulation_count,
    table3,
    workspan,
)
from repro.harness.resultstore import hash_key
from repro.harness.runner import GridPoint


@pytest.fixture
def store(tmp_path):
    store = set_result_store(tmp_path / "results")
    clear_cache()
    yield store
    set_result_store(None)
    clear_cache()


class TestResultStore:
    def test_hash_key_is_order_independent(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}}
        b = {"y": {"a": 3, "b": 2}, "x": 1}
        assert hash_key(a) == hash_key(b)
        assert hash_key(a) != hash_key({"x": 1, "y": {"b": 2, "a": 4}})

    def test_store_and_load_payload(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = {"app": "x", "scale": "tiny"}
        assert store.load(key) is None
        assert store.misses == 1
        store.store(key, {"key": key, "result": {"cycles": 7}})
        assert store.contains(key)
        assert store.load(key)["result"]["cycles"] == 7
        assert store.hits == 1
        assert len(store) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = {"app": "x"}
        path = store.store(key, {"key": key, "result": {}})
        path.write_text("{ truncated", encoding="utf-8")
        assert store.load(key) is None
        assert store.misses == 1

    def test_hash_key_canonicalizes_dataclasses(self):
        """Regression: non-JSON key components used to fall back to
        ``default=repr``, so two equal dataclass instances hashed to the
        same key only by luck of their repr — and anything whose repr
        embeds an object address silently missed on every probe."""
        import dataclasses

        @dataclasses.dataclass
        class Override:
            size_bytes: int
            assoc: int

        a = hash_key({"cfg": Override(8192, 2)})
        b = hash_key({"cfg": Override(8192, 2)})
        assert a == b
        assert a != hash_key({"cfg": Override(8192, 4)})
        # The dataclass hashes like its plain field dict.
        assert a == hash_key({"cfg": {"size_bytes": 8192, "assoc": 2}})

    def test_hash_key_rejects_address_reprs(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="address-based repr"):
            hash_key({"cfg": Opaque()})


class TestRunnerIntegration:
    def test_warm_store_skips_simulation(self, store):
        cold = run_experiment("cilk5-mt", "bt-mesi", "tiny")
        assert store.misses == 1 and store.hits == 0
        sims = simulation_count()
        clear_cache()  # drop the in-process memo; only the disk copy remains
        warm = run_experiment("cilk5-mt", "bt-mesi", "tiny")
        assert simulation_count() == sims
        assert store.hits == 1
        assert warm == cold  # field-by-field dataclass equality

    def test_store_distinguishes_overrides(self, store):
        run_experiment("cilk5-mt", "bt-mesi", "tiny")
        run_experiment("cilk5-mt", "bt-mesi", "tiny", app_overrides={"grain": 2})
        run_experiment(
            "cilk5-mt", "bt-mesi", "tiny", config_overrides={"seed": 1234}
        )
        assert len(store) == 3

    def test_dict_valued_config_override_round_trips(self, store):
        # Dict-valued overrides (the memo-key regression case) are legal
        # all the way down to make_config and the store key.
        res = run_experiment(
            "cilk5-mt",
            "bt-mesi",
            "tiny",
            config_overrides={"tiny_l1": {"size_bytes": 8192, "assoc": 2}},
        )
        sims = simulation_count()
        clear_cache()
        warm = run_experiment(
            "cilk5-mt",
            "bt-mesi",
            "tiny",
            # same override, different key insertion order
            config_overrides={"tiny_l1": {"assoc": 2, "size_bytes": 8192}},
        )
        assert simulation_count() == sims
        assert warm == res

    def test_store_distinguishes_robustness_settings(self, store):
        # Fault plans, the sanitizer, and the watchdog all shape what a
        # run measures; each combination must get its own store slot.
        run_experiment("cilk5-mt", "bt-mesi", "tiny")
        run_experiment("cilk5-mt", "bt-mesi", "tiny", faults="timing")
        run_experiment("cilk5-mt", "bt-mesi", "tiny", faults="timing,seed=7")
        run_experiment("cilk5-mt", "bt-mesi", "tiny", sanitize=True)
        run_experiment("cilk5-mt", "bt-mesi", "tiny", watchdog=1_000_000)
        assert len(store) == 5

    def test_faulted_run_does_not_poison_clean_cache(self, store):
        clean = run_experiment("cilk5-mt", "bt-mesi", "tiny")
        faulted = run_experiment("cilk5-mt", "bt-mesi", "tiny", faults="timing")
        assert faulted.extras["faults_fired"] > 0
        clear_cache()
        warm = run_experiment("cilk5-mt", "bt-mesi", "tiny")
        assert warm == clean
        assert "faults_fired" not in warm.extras

    def test_equivalent_fault_plan_forms_share_a_slot(self, store):
        from repro.faults import FaultPlan

        a = run_experiment("cilk5-mt", "bt-mesi", "tiny", faults="timing")
        sims = simulation_count()
        clear_cache()
        b = run_experiment(
            "cilk5-mt", "bt-mesi", "tiny", faults=FaultPlan.preset("timing")
        )
        assert simulation_count() == sims  # warm hit: same canonical key
        assert b == a

    def test_robustness_block_lands_in_payload_key(self, store):
        run_experiment("cilk5-mt", "bt-mesi", "tiny", faults="timing", sanitize=True)
        files = list(store.root.glob("*/*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text(encoding="utf-8"))
        robustness = payload["key"]["experiment"]["robustness"]
        assert robustness["sanitize"] is True
        assert robustness["faults"]["noc_jitter_prob"] > 0

    def test_use_cache_false_bypasses_store(self, store):
        run_experiment("cilk5-mt", "bt-mesi", "tiny", use_cache=False)
        assert len(store) == 0
        assert store.hits == 0 and store.misses == 0

    def test_workspan_persisted(self, store):
        report = workspan("cilk5-mt", "tiny")
        clear_cache()
        again = workspan("cilk5-mt", "tiny")
        assert again == report
        assert store.hits == 1

    def test_payload_is_json_with_readable_key(self, store):
        run_experiment("cilk5-mt", "bt-hcc-gwb", "tiny")
        files = list(store.root.glob("*/*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text(encoding="utf-8"))
        assert payload["key"]["experiment"]["app"] == "cilk5-mt"
        assert payload["key"]["experiment"]["kind"] == "bt-hcc-gwb"
        assert payload["result"]["cycles"] > 0

    def test_warm_table3_does_zero_simulations(self, store):
        # The acceptance scenario: a table regenerated against a warm
        # results dir performs zero simulations and renders identically.
        apps = ("cilk5-mt",)
        rows_cold = table3("tiny", apps=apps)
        sims = simulation_count()
        clear_cache()
        store.reset_counters()
        rows_warm = table3("tiny", apps=apps)
        assert simulation_count() == sims
        assert store.misses == 0
        assert store.hits > 0
        assert rows_warm == rows_cold


class TestStoreKeyPins:
    """Store keys are the identity of every stored result: a change that
    moves one orphans the whole store.  These digests were computed before
    warm-start images were deleted; a deliberate key change (a schema or
    code-version bump) edits them and says so."""

    @pytest.mark.parametrize("point, digest", [
        (
            GridPoint("cilk5-cs", "bt-mesi", "quick"),
            "e998dfcb24a73008e9014a75de4d1dbb0ba1ff60dd17ad52ade500abd1e6fc1e",
        ),
        (
            GridPoint(
                "ligra-bfs", "bt-hcc-dts-gwb", "quick",
                app_overrides={"scale": 8},
            ),
            "6eed0bbcbb873d10852405a1503f606f2514cd11ff5105447f7db092a34028a5",
        ),
        (
            GridPoint("cilk5-mm", "serial-io", "quick", serial=True),
            "743050677845d7a94c62363a09b555669463ff3fe522ea3c7a354a6b5afaaf69",
        ),
    ], ids=["cilk5-cs", "ligra-bfs-scale8", "serial-io"])
    def test_store_key_digest_is_pinned(self, point, digest):
        assert hash_key(point.store_key()) == digest
