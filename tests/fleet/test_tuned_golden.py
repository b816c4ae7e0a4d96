"""Golden hashes for the tuned fleet and the search-cost Monte-Carlo.

The resim and trace-scale goldens only cover untuned streams, so
nothing else hashes the outputs Algorithm 1 drives.  This suite pins
both consumers of the search:

* a ``rush`` stream with ``tune=True`` — ``summary.to_dict()``,
  including the search-trial job records and the per-class policy
  rows;
* a seed-0 :class:`~repro.core.search.cost_model.SearchCostSimulator`
  replay over a noisy synthetic profile, for a new-job and a
  recurring-job search setting.

Both live under the ``tuned`` section of
``tests/data/fleet_golden_hashes.json``.  Like the other golden suites,
set ``REPRO_GOLDEN_SKIP=1`` on machines whose BLAS rounds differently.
Regenerate after an intentional numeric change (the hook only rewrites
this file's section)::

    PYTHONPATH=src python tests/fleet/test_tuned_golden.py regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from repro.core.search import ProfileModel, SearchCostSimulator, SearchSetting
from repro.fleet import FleetConfig, FleetSummary, simulate_fleet

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "data" / "fleet_golden_hashes.json"
)
GOLDEN_KEY = "tuned"
SCALE = 0.008
SEED = 0
N_SIMULATIONS = 200
SETTINGS = (SearchSetting(False, 3, 2), SearchSetting(True, 0, 3))


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summary_hash(summary: FleetSummary) -> str:
    return _digest(summary.to_dict())


def _tuned_fleet() -> FleetSummary:
    return simulate_fleet(
        FleetConfig(
            scenario="rush",
            scheduler="fifo",
            sync_policy="sync-switch",
            seed=SEED,
            scale=SCALE,
            tune=True,
        )
    )


def _noisy_profile() -> ProfileModel:
    """Knee at 6.25% with per-run accuracy spread, so draws matter."""
    samples = {}
    for fraction in (0.0, 0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0):
        accuracy = 0.92 - 1.2 * max(0.0625 - fraction, 0.0)
        time = 100.0 * (0.15 + 0.85 * fraction)
        samples[fraction] = [
            (accuracy + 0.03 * (-1) ** index * index / 4.0, time + index)
            for index in range(5)
        ]
    return ProfileModel(samples)


def _cost_reports() -> list[dict]:
    simulator = SearchCostSimulator(
        _noisy_profile(), max_settings=5, beta=0.01, seed=SEED
    )
    rows = []
    for setting in SETTINGS:
        report = simulator.simulate(setting, n_simulations=N_SIMULATIONS)
        row = dataclasses.asdict(report)
        row["setting"] = setting.label()
        rows.append(row)
    return rows


def _skip_unless_golden_machine():
    if os.environ.get("REPRO_GOLDEN_SKIP", "") not in ("", "0"):
        pytest.skip("REPRO_GOLDEN_SKIP set (BLAS float bits differ here)")


@pytest.fixture(scope="module")
def golden() -> dict:
    data = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert GOLDEN_KEY in data, (
        f"missing {GOLDEN_KEY!r} section in {GOLDEN_PATH}; regenerate "
        "with `PYTHONPATH=src python tests/fleet/test_tuned_golden.py regen`"
    )
    return data[GOLDEN_KEY]


@pytest.fixture(scope="module")
def tuned() -> FleetSummary:
    return _tuned_fleet()


class TestTunedFleetGolden:
    def test_stream_really_searches(self, tuned):
        assert tuned.n_search_jobs > 0
        assert tuned.tuning, "tuned run published no policy rows"

    def test_summary_hash(self, tuned, golden):
        _skip_unless_golden_machine()
        assert summary_hash(tuned) == golden["hashes"]["fleet"], (
            "tuned rush fleet summary changed vs the committed golden "
            "hash — the in-fleet search or its policy rows drifted"
        )


class TestSearchCostGolden:
    def test_report_hash(self, golden):
        assert _digest(_cost_reports()) == golden["hashes"]["search_cost"], (
            "seed-0 SearchCostSimulator reports changed vs the committed "
            "golden hash — the Monte-Carlo search replay drifted"
        )


def _regenerate() -> None:
    import numpy as np

    hashes = {
        "fleet": summary_hash(_tuned_fleet()),
        "search_cost": _digest(_cost_reports()),
    }
    payload = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    payload[GOLDEN_KEY] = {
        "scenario": "rush",
        "scheduler": "fifo",
        "seed": SEED,
        "scale": SCALE,
        "n_simulations": N_SIMULATIONS,
        "numpy": np.__version__,
        "hashes": hashes,
    }
    GOLDEN_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH} [{GOLDEN_KEY}]")
    for name, value in hashes.items():
        print(f"  {name}: {value}")


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] == "regen":
        _regenerate()
    else:
        print(__doc__)
        sys.exit(2)
