"""Tests for the per-class policy store and amortization accounting."""

import math

import pytest

from repro.core.search import (
    ProfileModel,
    SearchCostSimulator,
    SearchSetting,
)
from repro.errors import FleetError
from repro.fleet.policy_store import (
    ClassPolicy,
    JobClass,
    PolicyStore,
    policy_from_schedule_search,
)
from repro.core.search.binary_search import ScheduleSearchSession, SearchConfig
from repro.fleet.workload import JobRequest, estimate_service_time

CLS = JobClass(setup_index=1, n_workers=8)


def make_policy(
    bsp_time=100.0, policy_time=60.0, search_cost=160.0, percent=50.0
) -> ClassPolicy:
    return ClassPolicy(
        job_class=CLS,
        percent=percent,
        target_accuracy=0.9,
        bsp_time=bsp_time,
        policy_time=policy_time,
        search_cost=search_cost,
        n_trials=2,
        tuned_at=0.0,
    )


class TestJobClass:
    def test_of_request_and_label(self):
        request = JobRequest(job_id=0, arrival=0.0, setup_index=2, n_workers=8)
        assert JobClass.of(request) == JobClass(2, 8)
        assert JobClass(2, 8).label() == "exp2x8"


class TestAmortizationAccounting:
    """Satellite acceptance: break-even accounting matches the paper's
    SearchCostReport formula, and cumulative realized savings cross
    the search cost exactly at the predicted recurrence."""

    def test_breakeven_matches_search_cost_report(self):
        # Noise-free profile: BSP trains in 100 s at accuracy 0.9, the
        # 50% policy in 60 s at the same accuracy.  A (No, 1, 1) search
        # with one setting trains exactly one BSP and one candidate
        # session: cost 160 s, saving 40 s per recurrence.
        profile = ProfileModel({0.5: [(0.9, 60.0)], 1.0: [(0.9, 100.0)]})
        simulator = SearchCostSimulator(
            profile, max_settings=1, beta=0.01, seed=0
        )
        report = simulator.simulate(
            SearchSetting(False, 1, 1), n_simulations=8
        )
        assert report.ground_truth_percent == 50.0
        assert report.amortization_recurrences == pytest.approx(4.0)

        # The store's ClassPolicy reproduces the exact same number from
        # the same measured quantities...
        policy = make_policy(
            bsp_time=100.0, policy_time=60.0, search_cost=160.0
        )
        assert policy.search_cost_x == pytest.approx(report.search_cost_x)
        assert policy.amortized_recurrences == pytest.approx(
            report.amortization_recurrences
        )

        # ...and a stream of identical recurrences crosses break-even
        # exactly at the predicted recurrence count.
        store = PolicyStore()
        store.begin_search(CLS)
        store.install(policy)
        predicted = math.ceil(report.amortization_recurrences)
        for recurrence in range(1, predicted + 2):
            store.note_recurrence(CLS, 60.0)
            if recurrence < predicted:
                assert store.breakeven_recurrence(CLS) is None
            else:
                assert store.breakeven_recurrence(CLS) == predicted
        assert store.recurrences(CLS) == predicted + 1
        assert store.realized_savings(CLS) == pytest.approx(
            40.0 * (predicted + 1)
        )

    def test_policy_from_search_session(self):
        # Drive an incremental session with the same noise-free trial
        # economics and fold it into a policy: identical accounting.
        def trial(fraction, run):
            return 0.9, 60.0 if fraction == 0.5 else 100.0

        session = ScheduleSearchSession(
            SearchConfig(beta=0.01, max_settings=1, runs_per_setting=1,
                         bsp_runs=1)
        )
        while not session.done:
            for run, fractions in enumerate(session.next_batch()):
                session.record(*trial(fractions[0], run))
        policy = policy_from_schedule_search(
            CLS, session.result(), tuned_at=7.0
        )
        assert policy.percent == 50.0
        assert policy.fractions is None  # two-phase: stored percent-only
        assert policy.bsp_time == pytest.approx(100.0)
        assert policy.policy_time == pytest.approx(60.0)
        assert policy.search_cost == pytest.approx(160.0)
        assert policy.amortized_recurrences == pytest.approx(4.0)
        assert policy.tuned_at == 7.0

    def test_never_beating_bsp_is_infinite_and_reported_none(self):
        policy = make_policy(policy_time=100.0)  # no saving at all
        assert math.isinf(policy.amortized_recurrences)
        store = PolicyStore()
        store.begin_search(CLS)
        store.install(policy)
        store.note_recurrence(CLS, 100.0)
        row = store.report()[0]
        assert row["amortized_recurrences"] is None
        assert row["breakeven_recurrence"] is None
        assert row["recurrences"] == 1

    def test_report_rows_are_json_clean(self):
        import json

        store = PolicyStore()
        store.begin_search(CLS)
        store.install(make_policy())
        store.note_recurrence(CLS, 55.0)
        rows = store.report()
        assert len(rows) == 1
        row = rows[0]
        assert row["job_class"] == "exp1x8"
        assert row["realized_savings_s"] == pytest.approx(45.0)
        json.dumps(rows)  # must not contain inf/nan/objects


class TestStoreLifecycle:
    def test_double_search_rejected(self):
        store = PolicyStore()
        store.begin_search(CLS)
        with pytest.raises(FleetError):
            store.begin_search(CLS)

    def test_install_twice_rejected(self):
        store = PolicyStore()
        store.begin_search(CLS)
        store.install(make_policy())
        with pytest.raises(FleetError):
            store.install(make_policy())

    def test_recurrence_without_policy_rejected(self):
        with pytest.raises(FleetError):
            PolicyStore().note_recurrence(CLS, 10.0)

    def test_lookup_untuned_is_none(self):
        store = PolicyStore()
        assert store.lookup(CLS) is None
        assert not store.is_searching(CLS)
        store.begin_search(CLS)
        assert store.is_searching(CLS)
        assert store.lookup(CLS) is None


class TestPredictService:
    """Satellite acceptance: un-tuned classes fall back to the
    conservative all-BSP estimate and never raise."""

    def test_untuned_falls_back_to_all_bsp_estimate(self):
        store = PolicyStore()
        request = JobRequest(job_id=0, arrival=0.0, sync_policy="sync-switch")
        predicted = store.predict_service(request, 0.008)
        assert predicted == pytest.approx(
            estimate_service_time(1, 100.0, 0.008)
        )

    def test_tuned_class_predicts_measured_policy_time(self):
        store = PolicyStore()
        store.begin_search(CLS)
        store.install(make_policy(policy_time=61.5))
        request = JobRequest(job_id=0, arrival=0.0, sync_policy="sync-switch")
        assert store.predict_service(request, 0.008) == 61.5

    def test_static_policies_and_trials_stay_conservative(self):
        store = PolicyStore()
        store.begin_search(CLS)
        store.install(make_policy(policy_time=61.5))
        conservative = estimate_service_time(1, 100.0, 0.008)
        bsp_job = JobRequest(job_id=0, arrival=0.0, sync_policy="bsp")
        trial = JobRequest(
            job_id=1, arrival=0.0, sync_policy="sync-switch",
            kind="search-trial", percent_override=50.0,
        )
        assert store.predict_service(bsp_job, 0.008) == pytest.approx(
            conservative
        )
        assert store.predict_service(trial, 0.008) == pytest.approx(
            conservative
        )


class TestPersistence:
    """Satellite: JSON save/load with a version/compat check."""

    def populated_store(self) -> PolicyStore:
        store = PolicyStore()
        store.begin_search(CLS)
        store.install(make_policy())
        store.note_recurrence(CLS, 55.0)
        store.note_recurrence(CLS, 65.0)
        other = JobClass(setup_index=2, n_workers=16)
        store.begin_search(other)
        store.install(
            ClassPolicy(
                job_class=other, percent=12.5, target_accuracy=0.85,
                bsp_time=400.0, policy_time=120.0, search_cost=900.0,
                n_trials=4, tuned_at=10.0,
            )
        )
        return store

    def test_payload_round_trip_preserves_everything(self):
        store = self.populated_store()
        again = PolicyStore.from_payload(store.to_payload())
        assert again.report() == store.report()
        request = JobRequest(job_id=0, arrival=0.0, sync_policy="sync-switch")
        assert again.predict_service(request, 0.008) == store.predict_service(
            request, 0.008
        )
        assert again.realized_service_mean(CLS) == pytest.approx(60.0)
        assert again.recurrences(CLS) == 2

    def test_file_round_trip(self, tmp_path):
        store = self.populated_store()
        path = store.save(tmp_path / "store.json")
        again = PolicyStore.load(path)
        assert again.to_payload() == store.to_payload()

    def test_unsupported_version_rejected(self, tmp_path):
        from repro.errors import ConfigurationError

        store = self.populated_store()
        payload = store.to_payload()
        payload["version"] = 99
        target = tmp_path / "future.json"
        import json

        target.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ConfigurationError):
            PolicyStore.load(target)

    def test_missing_file_rejected(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            PolicyStore.load(tmp_path / "absent.json")

    def test_malformed_class_entry_rejected(self):
        from repro.errors import ConfigurationError

        payload = self.populated_store().to_payload()
        del payload["classes"][0]["bsp_time"]
        with pytest.raises(ConfigurationError):
            PolicyStore.from_payload(payload)

    def test_in_flight_searches_not_persisted(self):
        store = PolicyStore()
        store.begin_search(CLS)
        again = PolicyStore.from_payload(store.to_payload())
        assert not again.is_searching(CLS)
        assert again.lookup(CLS) is None

    def test_warm_store_skips_the_search_in_a_fleet_run(self):
        """The paper's (Yes, 0, r) setting: a warm-started recurring
        stream reuses the persisted policy and never searches."""
        from repro.fleet import FleetConfig, FleetSimulator

        store = PolicyStore()
        store.begin_search(CLS)
        store.install(make_policy(percent=6.25))
        summary = FleetSimulator(
            FleetConfig(
                scenario="rush", scheduler="fifo",
                sync_policy="sync-switch", seed=0, scale=0.008, n_jobs=2,
                tune=True,
            ),
            store=store,
        ).run()
        assert summary.n_search_jobs == 0, "warm class must not re-search"
        assert all(record.tuned for record in summary.jobs)
        assert store.recurrences(CLS) == 2

    def test_duplicate_class_entries_rejected_as_configuration_error(self):
        from repro.errors import ConfigurationError

        payload = self.populated_store().to_payload()
        payload["classes"].append(dict(payload["classes"][0]))
        with pytest.raises(ConfigurationError):
            PolicyStore.from_payload(payload)

    def test_scale_mismatch_rejected(self, tmp_path):
        from repro.errors import ConfigurationError

        store = self.populated_store()
        path = store.save(tmp_path / "store.json", scale=0.008)
        assert PolicyStore.load(path, scale=0.008).report() == store.report()
        with pytest.raises(ConfigurationError):
            PolicyStore.load(path, scale=0.02)

    def test_scale_check_skipped_when_undeclared(self, tmp_path):
        store = self.populated_store()
        path = store.save(tmp_path / "store.json")  # no scale stamped
        assert PolicyStore.load(path, scale=0.02).report() == store.report()

    def test_malformed_breakeven_rejected(self):
        from repro.errors import ConfigurationError

        payload = self.populated_store().to_payload()
        payload["classes"][0]["breakeven_recurrence"] = "oops"
        with pytest.raises(ConfigurationError):
            PolicyStore.from_payload(payload)
