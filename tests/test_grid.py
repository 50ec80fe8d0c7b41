"""Tests for the parallel experiment grid (repro.harness.grid)."""

import dataclasses

import pytest

from repro.harness import (
    FailedResult,
    GridError,
    GridPoint,
    clear_cache,
    expand_grid,
    run_experiment,
    run_point,
    set_result_store,
    simulation_count,
)
from repro.harness.grid import default_jobs, run_grid, set_default_jobs
from repro.harness.runner import canonicalize


@pytest.fixture(autouse=True)
def isolated_harness():
    set_result_store(None)
    clear_cache()
    yield
    set_result_store(None)
    set_default_jobs(None)
    clear_cache()


SUB_GRID = expand_grid(
    apps=("cilk5-mt", "ligra-bfs"),
    kinds=("bt-mesi", "bt-hcc-dts-gwb"),
    scales=("quick",),
)


def _run_fresh(points, **kwargs):
    clear_cache()
    return run_grid(points, **kwargs)


class TestGridBasics:
    def test_expand_grid_is_app_major(self):
        points = expand_grid(("a", "b"), ("k1", "k2"), ("s",))
        assert [(p.app, p.kind) for p in points] == [
            ("a", "k1"), ("a", "k2"), ("b", "k1"), ("b", "k2"),
        ]

    def test_empty_grid(self):
        assert run_grid([]) == []

    def test_default_jobs_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        set_default_jobs(6)
        assert default_jobs() == 6
        with pytest.raises(ValueError):
            set_default_jobs(0)

    def test_point_label_mentions_overrides(self):
        point = GridPoint("a", "k", "s", app_overrides={"grain": 2})
        assert "grain" in point.label()
        # Points that differ only in the watchdog must not share a label.
        watched = GridPoint("a", "k", "s", watchdog=20_000)
        assert watched.label() != GridPoint("a", "k", "s").label()
        assert "watchdog=20000" in watched.label()


class TestDeterminism:
    def test_parallel_grid_bit_identical_to_serial(self):
        """Acceptance: run_grid(jobs=4) over a quick-scale sub-grid is
        bit-identical, field by field, to a jobs=1 serial run."""
        serial = _run_fresh(SUB_GRID, jobs=1)
        parallel = _run_fresh(SUB_GRID, jobs=4)
        assert len(serial) == len(parallel) == len(SUB_GRID)
        for point, s, p in zip(SUB_GRID, serial, parallel):
            assert s == p, f"mismatch at {point.label()}"
            # Equality is dataclass-wide, but check the tricky fields
            # (floats and nested dicts) explicitly.
            assert s.cycles == p.cycles
            assert s.instructions == p.instructions
            assert s.traffic_bytes == p.traffic_bytes
            assert s.l1_hit_rate_tiny == p.l1_hit_rate_tiny
            assert s.tiny_breakdown == p.tiny_breakdown
            assert s.energy.total_pj == p.energy.total_pj
            assert s.energy.breakdown_pj == p.energy.breakdown_pj
        for s, p in zip(serial, parallel):
            assert dataclasses.asdict(s) == dataclasses.asdict(p)

    def test_parallel_results_seed_the_memo_cache(self):
        _run_fresh(SUB_GRID[:2], jobs=2)
        sims = simulation_count()
        for point in SUB_GRID[:2]:
            run_point(point)
        assert simulation_count() == sims

    def test_parallel_results_land_in_the_store(self, tmp_path):
        store = set_result_store(tmp_path / "results")
        _run_fresh(SUB_GRID[:2], jobs=2)
        assert len(store) == 2

    def test_duplicate_points_coalesce_onto_one_simulation(self, tmp_path):
        from repro.obs.ledger import read_ledger, set_ledger

        point = GridPoint("cilk5-mt", "bt-mesi", "tiny")
        set_ledger(tmp_path / "ledger.jsonl")
        try:
            first, second = _run_fresh([point, point], jobs=2)
        finally:
            set_ledger(None)
        assert first == second and first.cycles > 0
        lines = read_ledger(tmp_path / "ledger.jsonl")
        assert [(e["source"], e["outcome"]) for e in lines] == [("runner", "ok")]


class TestMpContext:
    def test_spawn_override_is_honored(self, monkeypatch):
        from repro.harness.grid import _mp_context

        monkeypatch.setenv("REPRO_MP", "spawn")
        assert _mp_context().get_start_method() == "spawn"

    def test_unknown_method_is_rejected(self, monkeypatch):
        from repro.harness.grid import _mp_context

        monkeypatch.setenv("REPRO_MP", "threads")
        with pytest.raises(ValueError, match="REPRO_MP"):
            _mp_context()

    def test_forced_fork_refuses_live_helper_threads(self, monkeypatch):
        """Regression: fork used to be picked unconditionally; with a live
        non-daemon helper thread the forked child inherits any lock the
        helper holds — held forever.  A *forced* fork must refuse loudly."""
        import threading

        from repro.harness.grid import _mp_context

        release = threading.Event()
        helper = threading.Thread(
            target=release.wait, name="obs-helper", daemon=False
        )
        helper.start()
        try:
            monkeypatch.setenv("REPRO_MP", "fork")
            with pytest.raises(RuntimeError, match="obs-helper"):
                _mp_context()
        finally:
            release.set()
            helper.join()

    def test_auto_mode_falls_back_to_spawn_around_helper_threads(
        self, monkeypatch
    ):
        import threading

        from repro.harness.grid import _mp_context

        monkeypatch.delenv("REPRO_MP", raising=False)
        release = threading.Event()
        helper = threading.Thread(
            target=release.wait, name="ledger-appender", daemon=False
        )
        helper.start()
        try:
            assert _mp_context().get_start_method() == "spawn"
        finally:
            release.set()
            helper.join()

    def test_grid_bit_identical_under_spawn(self, monkeypatch):
        """One grid sweep must run green — and bit-identical to serial —
        under ``REPRO_MP=spawn`` (workers re-import instead of forking)."""
        points = expand_grid(
            apps=("cilk5-mt",), kinds=("bt-mesi", "bt-hcc-dnv"),
            scales=("tiny",),
        )
        serial = _run_fresh(points, jobs=1)
        monkeypatch.setenv("REPRO_MP", "spawn")
        spawned = _run_fresh(points, jobs=2)
        for a, b in zip(serial, spawned):
            for field in dataclasses.fields(a):
                assert getattr(a, field.name) == getattr(b, field.name), field.name


class TestFailureHandling:
    def test_bad_point_raises_grid_error(self):
        bad = GridPoint(
            "cilk5-mt", "bt-mesi", "quick",
            app_overrides={"no_such_param": 1},
        )
        with pytest.raises(GridError, match="no_such_param"):
            run_grid([SUB_GRID[0], bad], jobs=2, retries=1)

    def test_timeout_raises_grid_error(self):
        point = GridPoint("cilk5-mt", "bt-mesi", "quick")
        with pytest.raises(GridError, match="timed out"):
            run_grid([point, SUB_GRID[1]], jobs=2, timeout=1e-9, retries=0)

    def test_serial_path_propagates_exceptions(self):
        bad = GridPoint(
            "cilk5-mt", "bt-mesi", "quick",
            app_overrides={"no_such_param": 1},
        )
        with pytest.raises(TypeError):
            run_grid([bad], jobs=1)


DEADLOCK_POINT = GridPoint("kernel-deadlock", "bt-mesi", "tiny", watchdog=20_000)


class TestCrashTolerantSweeps:
    """on_error="record": one wedged cell must not sink the sweep."""

    def test_unknown_on_error_rejected(self):
        with pytest.raises(ValueError):
            run_grid([], on_error="ignore")

    @pytest.mark.parametrize("jobs", (1, 2))
    @pytest.mark.parametrize("bad, match", [
        (dict(retries=-1), "retries must be an int >= 0, got -1"),
        (dict(retries=1.5), "retries must be an int >= 0, got 1.5"),
        (dict(retries=True), "retries must be an int >= 0, got True"),
        (dict(timeout=0), "timeout must be None or > 0 seconds, got 0"),
        (dict(timeout=-5), "timeout must be None or > 0 seconds, got -5"),
    ])
    def test_bad_retries_or_timeout_rejected_before_any_point_runs(
        self, jobs, bad, match
    ):
        before = simulation_count()
        with pytest.raises(ValueError, match=match):
            run_grid(SUB_GRID[:2], jobs=jobs, **bad)
        assert simulation_count() == before

    @pytest.mark.parametrize("jobs", (1, 3))
    def test_deadlock_recorded_in_slot(self, jobs):
        points = [SUB_GRID[0], DEADLOCK_POINT, SUB_GRID[1]]
        results = _run_fresh(points, jobs=jobs, on_error="record")
        assert len(results) == 3
        ok_first, failed, ok_last = results
        assert ok_first.cycles > 0 and ok_last.cycles > 0
        assert isinstance(failed, FailedResult)
        assert failed.failed and failed.error == "deadlock"
        assert failed.app == "kernel-deadlock"
        assert "no runtime progress" in failed.message
        assert failed.diagnostic["done"] is False
        assert "cores" in failed.diagnostic

    def test_deadlock_not_retried(self):
        # Deadlocks are deterministic; retries would just re-wedge.
        results = _run_fresh([DEADLOCK_POINT], jobs=2, retries=3,
                             on_error="record")
        assert results[0].attempts == 1

    def test_deadlock_raises_by_default(self):
        with pytest.raises((GridError, Exception)) as exc_info:
            _run_fresh([DEADLOCK_POINT], jobs=1)
        assert "no runtime progress" in str(exc_info.value)

    def test_watchdog_point_label_and_kwargs(self):
        assert "kernel-deadlock" in DEADLOCK_POINT.label()
        assert DEADLOCK_POINT.watchdog == 20_000

    def test_adopt_result_refuses_failures(self):
        """Regression: adopting a FailedResult would persist the failure
        as a success, and every later probe of that key would silently
        skip the simulation."""
        from repro.harness.runner import adopt_result

        failure = FailedResult(
            app="kernel-deadlock", kind="bt-mesi", scale="tiny",
            label="kernel-deadlock bt-mesi tiny", error="deadlock",
            message="no runtime progress",
        )
        with pytest.raises(TypeError, match="refusing to adopt"):
            adopt_result(failure, DEADLOCK_POINT)
        with pytest.raises(TypeError, match="refusing to adopt"):
            adopt_result("not a result at all", DEADLOCK_POINT)

    def test_recorded_failure_never_lands_in_the_store(self, tmp_path):
        """A failed cell must leave no store entry: a sweep rerun has to
        re-attempt it, not warm-hit a bogus 'success'."""
        store = set_result_store(tmp_path / "results")
        results = _run_fresh(
            [SUB_GRID[0], DEADLOCK_POINT], jobs=2, on_error="record"
        )
        assert isinstance(results[1], FailedResult)
        assert len(store) == 1  # only the successful point persisted
        # A rerun of the same sweep re-attempts (and re-records) the
        # failed cell instead of loading it as a success.
        rerun = _run_fresh(
            [SUB_GRID[0], DEADLOCK_POINT], jobs=1, on_error="record"
        )
        assert isinstance(rerun[1], FailedResult)
        assert rerun[0].cycles == results[0].cycles

    def test_faulted_point_runs_through_grid(self):
        point = GridPoint(
            "cilk5-mt", "bt-mesi", "quick", faults="timing", sanitize=True
        )
        clean = GridPoint("cilk5-mt", "bt-mesi", "quick")
        faulted_res, clean_res = _run_fresh([point, clean], jobs=2)
        assert faulted_res.extras["faults_fired"] > 0
        assert faulted_res.extras["sanitizer_walks"] > 0
        assert "faults_fired" not in clean_res.extras
        assert "faults" in point.label() and "sanitize" in point.label()


class TestMemoKeyCanonicalization:
    """Regression: dict/list-valued overrides used to raise TypeError
    ("unhashable type") when run_experiment built its memo key."""

    def test_canonicalize_handles_nested_containers(self):
        value = {"b": [1, {"c": 2}], "a": (3, 4)}
        canon = canonicalize(value)
        hash(canon)  # must be hashable
        reordered = canonicalize({"a": (3, 4), "b": [1, {"c": 2}]})
        assert canon == reordered

    def test_memo_key_with_dict_overrides_is_hashable(self):
        key = GridPoint(
            "cilk5-mt", "bt-mesi", "quick",
            app_overrides={"grain": 2},
            config_overrides={"tiny_l1": {"size_bytes": 8192, "assoc": 2}},
            runtime_kwargs={"steal_policy": "big-first"},
        ).key()
        hash(key)
        again = GridPoint(
            "cilk5-mt", "bt-mesi", "quick",
            app_overrides={"grain": 2},
            config_overrides={"tiny_l1": {"assoc": 2, "size_bytes": 8192}},
            runtime_kwargs={"steal_policy": "big-first"},
        ).key()
        assert key == again
        assert key != GridPoint("cilk5-mt", "bt-mesi", "quick").key()

    def test_run_experiment_accepts_dict_valued_config_override(self):
        result = run_experiment(
            "cilk5-mt", "bt-mesi", "quick",
            config_overrides={"tiny_l1": {"size_bytes": 8192, "assoc": 2}},
        )
        assert result.cycles > 0
        sims = simulation_count()
        # Memoized on the second call despite the dict-valued override.
        run_experiment(
            "cilk5-mt", "bt-mesi", "quick",
            config_overrides={"tiny_l1": {"assoc": 2, "size_bytes": 8192}},
        )
        assert simulation_count() == sims
