"""The library fit: the pipeline curdur fit runs, with the same outputs and flags."""

import json
import re

import pytest

import curdur
from curdur import pipeline
from curdur.cli import EXIT_FLAGGED, EXIT_OK, main, write_dataset

SHORT = curdur.SamplerConfig(chains=2, iterations_per_chain=300, warmup=150, seed=1)


def floor_flags(result):
    return [flag for flag in result.report.flags if flag.startswith("basis_floor:")]


@pytest.fixture(scope="module")
def above_floor():
    """The fit benchmark's survey (true mean TBS 33.3 days) and its short fit."""
    data = curdur.simulate_survey(curdur.truncated_geometric(0.03), n=1000, seed=7)
    return data, curdur.fit(data, sampler_config=SHORT)


def test_fit_at_the_basis_floor_is_flagged():
    # true mean TBS 3.33 days; the default basis cannot go below 15.10
    data = curdur.simulate_survey(curdur.truncated_geometric(0.3), n=2000, seed=7)
    result = curdur.fit(data, sampler_config=SHORT)
    assert round(result.floor, 4) == 15.1046
    lower = result.summary.mean_tbs_days.band(0.95).lower
    assert floor_flags(result) == [f"basis_floor: mean_tbs_days 0.95 band starts at "
                                   f"{lower:.4f}, within 1% of the basis floor "
                                   f"{result.floor:.4f}"]
    assert result.report.passed is False


def test_fit_above_the_basis_floor_is_not_flagged(above_floor):
    _, result = above_floor
    assert result.summary.mean_tbs_days.band(0.95).lower > 1.01 * result.floor
    assert floor_flags(result) == []


def test_cli_fit_writes_the_library_fit(above_floor, tmp_path):
    data, result = above_floor
    write_dataset(data, tmp_path / "data.csv")
    code = main(["fit", "--input", str(tmp_path / "data.csv"), "--outdir", str(tmp_path / "fit"),
                 "--chains", "2", "--iters", "300", "--warmup", "150", "--seed", "1"])
    assert code == (EXIT_OK if result.report.passed else EXIT_FLAGGED)
    diagnostics, estimates = (json.loads((tmp_path / "fit" / name).read_text())
                              for name in ("diagnostics.json", "estimates.json"))
    expected = result.report.to_dict()
    expected["divergences"] = result.draws.divergence_count.tolist()
    expected["accept_rate"] = result.draws.accept_stats.tolist()
    expected["step_size"] = result.draws.step_sizes.tolist()
    assert diagnostics == json.loads(json.dumps(expected))
    del estimates["dataset"], estimates["config"]
    assert estimates == json.loads(json.dumps(result.summary.to_dict()))


@pytest.mark.parametrize("levels, message", [
    ((1.5,), "credible levels must lie in (0, 1)"),
    # the floor rule reads the widest band
    ((), "a fit needs at least one credible level"),
])
def test_levels_are_refused_before_sampling(monkeypatch, levels, message):
    monkeypatch.setattr(pipeline, "sample",
                        lambda *args, **kwargs: pytest.fail("the fit sampled"))
    data = curdur.simulate_survey(curdur.truncated_geometric(0.03), n=50, seed=7)
    with pytest.raises(curdur.ConfigurationError, match=re.escape(message)):
        curdur.fit(data, sampler_config=SHORT, levels=levels)
