"""Tests for the Figure-1 campaign flow.

Campaigns here are restricted to small function subsets so each test
runs a handful of injections, not the full 551-function sweep.
"""

import pytest

from repro.core.campaign import Campaign, profile_workload, run_workload_set
from repro.core.exec import ProcessPoolBackend
from repro.core.faults import FaultType
from repro.core.outcomes import Outcome
from repro.core.runner import RunConfig
from repro.core.workload import MiddlewareKind


@pytest.fixture(scope="module")
def config():
    return RunConfig(base_seed=77)


def test_campaign_runs_all_faults_of_called_functions(config):
    campaign = Campaign("IIS", MiddlewareKind.NONE,
                        functions=["SetErrorMode", "GetACP"], config=config)
    result = campaign.run()
    # SetErrorMode has 1 parameter -> 3 faults; GetACP has none.
    assert len(result.runs) == 3
    assert result.activated_count == 3


def test_uncalled_functions_skipped_by_profiling(config):
    campaign = Campaign("IIS", MiddlewareKind.NONE,
                        functions=["SetErrorMode", "EraseTape"],
                        config=config)
    result = campaign.run()
    assert "EraseTape" in result.skipped_functions
    assert all(r.fault.function != "EraseTape" for r in result.runs)
    assert result.profile_run is not None


def test_activation_shortcut_without_profiling(config):
    # Without the profiling pre-pass, the first non-activated fault of
    # a function skips the function's remaining faults (the paper's
    # shortcut).
    campaign = Campaign("IIS", MiddlewareKind.NONE,
                        functions=["EraseTape"], config=config,
                        profile_first=False)
    result = campaign.run()
    assert len(result.runs) == 1          # one probe run, then skipped
    assert not result.runs[0].activated
    assert "EraseTape" in result.skipped_functions
    assert result.activated_count == 0


def test_outcome_fractions_sum_to_one(config):
    campaign = Campaign("IIS", MiddlewareKind.NONE,
                        functions=["CreateEventA"], config=config)
    result = campaign.run()
    fractions = result.outcome_fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)
    assert result.failure_coverage == \
        pytest.approx(1.0 - fractions[Outcome.FAILURE])


def test_empty_workload_set_has_zero_fractions(config):
    campaign = Campaign("IIS", MiddlewareKind.NONE,
                        functions=["EraseTape"], config=config)
    result = campaign.run()
    assert result.activated_count == 0
    assert all(v == 0.0 for v in result.outcome_fractions().values())


def test_progress_callback_invoked(config):
    seen = []
    campaign = Campaign(
        "IIS", MiddlewareKind.NONE, functions=["SetErrorMode"],
        config=config, progress=lambda done, total, run: seen.append(
            (done, total, run.outcome)))
    campaign.run()
    assert len(seen) == 3
    assert seen[-1][0] == seen[-1][1] == 3


def test_fault_type_restriction(config):
    campaign = Campaign("IIS", MiddlewareKind.NONE,
                        functions=["SetErrorMode"],
                        fault_types=(FaultType.FLIP,), config=config)
    result = campaign.run()
    assert len(result.runs) == 1
    assert result.runs[0].fault.fault_type is FaultType.FLIP


def test_runs_for_fault_keys_filters(config):
    campaign = Campaign("IIS", MiddlewareKind.NONE,
                        functions=["SetErrorMode"], config=config)
    result = campaign.run()
    keys = {result.runs[0].fault.key}
    assert len(result.runs_for_fault_keys(keys)) == 1
    assert result.runs_for_fault_keys(set()) == []


def test_run_workload_set_wrapper(config):
    result = run_workload_set("IIS", MiddlewareKind.NONE, config=config,
                              functions=["GetACP", "SetErrorMode"])
    assert result.workload_name == "IIS"
    assert result.middleware is MiddlewareKind.NONE


def test_profile_workload_returns_table1_counts(config):
    assert len(profile_workload("Apache1", MiddlewareKind.NONE,
                                config=config)) == 13
    assert len(profile_workload("Apache1", MiddlewareKind.MSCS,
                                config=config)) == 17


def test_campaign_accepts_spec_object(config):
    from repro.core.workload import IIS

    campaign = Campaign(IIS, MiddlewareKind.NONE, functions=["GetACP"],
                        config=config)
    assert campaign.workload.name == "IIS"


def test_campaign_is_deterministic(config):
    def distribution():
        return Campaign("Apache2", MiddlewareKind.NONE,
                        functions=["OpenMutexA", "Sleep"],
                        config=config).run().outcome_counts()

    assert distribution() == distribution()


# ----------------------------------------------------------------------
# Equivalence pruning (--prune-equivalent): the Figure-2 census of a
# pruned campaign must be bit-identical to the full campaign's.
# ----------------------------------------------------------------------
PRUNE_FUNCTIONS = ["CreateEventA", "SetErrorMode", "CreateFileA"]


@pytest.fixture(scope="module")
def manifest():
    """The real manifest, computed from the shipped tree."""
    from repro.lint.core import Analyzer, _lint_files
    from repro.lint.valueflow import valueflow_for

    analyzer = Analyzer([])
    py_files, _fault_files = analyzer.collect(["src"])
    tasks = [(path, analyzer._display_path(path)) for path in py_files]
    modules, _parse_findings = _lint_files(tasks, [])
    return valueflow_for(modules).manifest


def _census(result):
    """Per-fault outcome evidence, in canonical fault-list order."""
    return [(run.fault.key, run.activated, run.outcome,
             run.failure_mode, run.restarts_detected, run.retries_used)
            for run in result.runs]


def test_pruned_census_is_bit_identical(config, manifest):
    full = Campaign("IIS", MiddlewareKind.NONE,
                    functions=PRUNE_FUNCTIONS, config=config).run()
    pruned = Campaign("IIS", MiddlewareKind.NONE,
                      functions=PRUNE_FUNCTIONS, config=config,
                      prune=manifest).run()
    assert pruned.inferred_count > 0
    executed = [run for run in pruned.runs if not run.inferred]
    assert len(executed) == len(full.runs) - pruned.inferred_count
    assert _census(pruned) == _census(full)
    assert pruned.outcome_counts() == full.outcome_counts()


def test_pruned_census_is_bit_identical_in_parallel(config, manifest):
    full = Campaign("IIS", MiddlewareKind.NONE,
                    functions=PRUNE_FUNCTIONS, config=config).run()
    with ProcessPoolBackend(2) as backend:
        pruned = Campaign("IIS", MiddlewareKind.NONE,
                          functions=PRUNE_FUNCTIONS, config=config,
                          prune=manifest, backend=backend).run()
    assert pruned.inferred_count > 0
    assert _census(pruned) == _census(full)


def test_pruned_campaign_kill_and_resume(config, manifest, tmp_path):
    from repro.core.store import RunStore

    path = tmp_path / "runs.jsonl"
    reference = Campaign("IIS", MiddlewareKind.NONE,
                         functions=PRUNE_FUNCTIONS, config=config).run()

    class Killed(BaseException):
        """Stands in for SIGINT: not caught by the progress guard."""

    def kill_after(done, total, run):
        if done == 2:
            raise Killed

    with RunStore(path) as store:
        with pytest.raises(Killed):
            Campaign("IIS", MiddlewareKind.NONE,
                     functions=PRUNE_FUNCTIONS, config=config,
                     prune=manifest, store=store,
                     progress=kill_after).run()

    with RunStore(path) as store:
        resumed = Campaign("IIS", MiddlewareKind.NONE,
                           functions=PRUNE_FUNCTIONS, config=config,
                           prune=manifest, store=store).run()
    # Only executed evidence is checkpointed; inferred results are
    # re-expanded on resume and the census still matches the full run.
    assert resumed.cached_count > 0
    assert resumed.inferred_count > 0
    assert _census(resumed) == _census(reference)
    with RunStore(path) as store:
        assert len(store) == len(reference.runs) - \
            resumed.inferred_count + 1   # + the profile run


def test_fresh_store_checkpoints_under_the_campaign_fingerprint(config,
                                                                tmp_path):
    # An empty store is falsy (it has a length); its runs must still be
    # keyed by the campaign's fingerprint, or the daemon cannot stream
    # them back and a resume cannot find them.
    from repro.core.store import RunStore

    with RunStore(tmp_path / "runs.jsonl") as store:
        campaign = Campaign("IIS", MiddlewareKind.NONE,
                            functions=["SetErrorMode"], config=config,
                            store=store)
        result = campaign.run()
        assert {fp for fp, _ in store.keys()} == {campaign.fingerprint()}
        assert len(store) == len(result.runs) + 1  # + the profile run
