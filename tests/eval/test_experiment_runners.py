"""Tests for the experiment runners (one per table / figure) and reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    CausalTADDetector,
    IBOATDetector,
    RPVAEOnlyDetector,
    TGVAEOnlyDetector,
    VSAEDetector,
)
from repro.eval import (
    evaluate_detector,
    evaluate_fitted,
    format_efficiency,
    format_improvement_summary,
    format_results_table,
    format_sweep,
    run_inference_efficiency,
    run_lambda_sweep,
    run_online_sweep,
    run_stability_sweep,
    run_training_scalability,
    score_breakdown,
)
from repro.utils import RandomState


@pytest.fixture(scope="module")
def fitted_pair(benchmark_data, tiny_detector_config):
    """A fitted (CausalTAD, VSAE) pair shared by the sweep tests."""
    causal = CausalTADDetector(tiny_detector_config, rng=RandomState(70))
    causal.fit(benchmark_data.train, network=benchmark_data.city.network)
    vsae = VSAEDetector(tiny_detector_config, rng=RandomState(71))
    vsae.fit(benchmark_data.train, network=benchmark_data.city.network)
    return causal, vsae


class TestEvaluationHelpers:
    def test_evaluate_detector_fields(self, benchmark_data, fitted_pair):
        causal, _ = fitted_pair
        result = evaluate_detector(causal, benchmark_data.id_detour)
        assert result.detector == "CausalTAD"
        assert result.dataset == "id-detour"
        assert 0.0 <= result.roc_auc <= 1.0
        assert 0.0 <= result.pr_auc <= 1.0
        assert result.num_trajectories == len(benchmark_data.id_detour)
        assert result.num_anomalies == benchmark_data.id_detour.num_anomalies
        assert set(result.as_dict()) >= {"detector", "dataset", "roc_auc", "pr_auc"}


def _fitted(detector, data):
    detector.fit(data.train, network=data.city.network)
    return detector


class TestTables:
    def test_table1_structure(self, benchmark_data, fitted_pair):
        causal, _ = fitted_pair
        detectors = [_fitted(IBOATDetector(benchmark_data.num_segments), benchmark_data), causal]
        table = evaluate_fitted(
            detectors, [benchmark_data.id_detour, benchmark_data.id_switch], "table1"
        )
        assert {r.dataset for r in table.results} == {"id-detour", "id-switch"}
        assert {r.detector for r in table.results} == {"iBOAT", "CausalTAD"}
        assert len(table.results) == 4
        assert table.metric("CausalTAD", "id-detour") > 0.5

    def test_table2_structure(self, benchmark_data, fitted_pair):
        causal, _ = fitted_pair
        table = evaluate_fitted(
            [causal], [benchmark_data.ood_detour, benchmark_data.ood_switch], "table2"
        )
        assert {r.dataset for r in table.results} == {"ood-detour", "ood-switch"}

    def test_table3_ablation(self, benchmark_data, tiny_detector_config, fitted_pair):
        causal, _ = fitted_pair
        detectors = [
            causal,
            _fitted(TGVAEOnlyDetector(tiny_detector_config, rng=RandomState(73)), benchmark_data),
            _fitted(RPVAEOnlyDetector(tiny_detector_config, rng=RandomState(74)), benchmark_data),
        ]
        test_sets = [
            benchmark_data.id_detour,
            benchmark_data.id_switch,
            benchmark_data.ood_detour,
            benchmark_data.ood_switch,
        ]
        table = evaluate_fitted(detectors, test_sets, "table3")
        assert {r.detector for r in table.results} == {"CausalTAD", "TG-VAE", "RP-VAE"}
        assert len(table.results) == 3 * 4

    def test_best_detector_lookup(self, benchmark_data, fitted_pair):
        causal, _ = fitted_pair
        table = evaluate_fitted([causal], [benchmark_data.id_detour], "table1")
        assert table.best_detector("id-detour") == "CausalTAD"
        with pytest.raises(KeyError):
            table.best_detector("nonexistent")
        with pytest.raises(KeyError):
            table.metric("CausalTAD", "nonexistent")


class TestFigureSweeps:
    def test_fig4_score_breakdown(self, benchmark_data, fitted_pair):
        causal, vsae = fitted_pair
        comparison = score_breakdown(benchmark_data, causal, vsae)
        assert comparison.baseline_name == "VSAE"
        assert comparison.segments.shape == comparison.causal_scores.shape
        assert comparison.scaling_scores.shape == comparison.segments.shape
        assert np.isfinite(comparison.baseline_total)
        assert np.isfinite(comparison.causal_total)

    def test_fig5_stability_sweep(self, benchmark_data, fitted_pair):
        causal, vsae = fitted_pair
        sweep = run_stability_sweep(
            benchmark_data, [causal, vsae], alphas=(0.0, 0.5, 1.0), rng=RandomState(76)
        )
        assert sweep.parameter_values == [0.0, 0.5, 1.0]
        assert set(sweep.series) == {"CausalTAD", "VSAE"}
        assert len(sweep.curve("CausalTAD")) == 3
        assert all(0.0 <= v <= 1.0 for v in sweep.curve("CausalTAD"))

    def test_fig6_online_sweep(self, benchmark_data, fitted_pair):
        causal, _ = fitted_pair
        sweep = run_online_sweep(
            benchmark_data, [causal], observed_ratios=(0.4, 1.0), distribution="id", anomaly="switch"
        )
        curve = sweep.curve("CausalTAD")
        assert len(curve) == 2
        # Full observation should not be worse than 40% observation by a large margin.
        assert curve[1] >= curve[0] - 0.15

    def test_fig7a_training_scalability(self, benchmark_data, tiny_detector_config):
        factories = {
            "CausalTAD": lambda: CausalTADDetector(tiny_detector_config, rng=RandomState(77)),
        }
        result = run_training_scalability(
            benchmark_data, factories, fractions=(0.5, 1.0), epochs=1, rng=RandomState(78)
        )
        assert result.parameter_values == [0.5, 1.0]
        times = result.seconds["CausalTAD"]
        assert len(times) == 2 and all(t > 0 for t in times)

    def test_fig7b_inference_efficiency(self, benchmark_data, fitted_pair):
        causal, vsae = fitted_pair
        result = run_inference_efficiency(
            benchmark_data, [causal, vsae], observed_ratios=(0.5, 1.0), max_trajectories=20
        )
        assert set(result.seconds) == {"CausalTAD", "VSAE"}
        assert all(t > 0 for series in result.seconds.values() for t in series)

    def test_fig8_lambda_sweep(self, benchmark_data, fitted_pair):
        causal, _ = fitted_pair
        sweep = run_lambda_sweep(
            benchmark_data, causal, lambdas=(0.0, 0.1), combinations=(("ood", "detour"),)
        )
        assert sweep.parameter_values == [0.0, 0.1]
        assert "ood-detour" in sweep.series
        assert len(sweep.series["ood-detour"]["roc_auc"]) == 2


class TestReporting:
    def test_format_results_table_contains_cells(self, benchmark_data, fitted_pair):
        causal, _ = fitted_pair
        table = evaluate_fitted([causal], [benchmark_data.id_detour], "table1")
        text = format_results_table(table)
        assert "CausalTAD" in text
        assert "id-detour:roc_auc" in text

    def test_format_improvement_summary(self, benchmark_data, fitted_pair):
        causal, vsae = fitted_pair
        table = evaluate_fitted(
            [vsae, causal], [benchmark_data.id_detour, benchmark_data.id_switch], "table1"
        )
        text = format_improvement_summary(table)
        assert "CausalTAD" in text
        assert "%" in text

    def test_format_sweep_and_efficiency(self, benchmark_data, fitted_pair):
        causal, _ = fitted_pair
        sweep = run_lambda_sweep(benchmark_data, causal, lambdas=(0.0, 0.1), combinations=(("id", "detour"),))
        assert "lambda" in format_sweep(sweep)
        efficiency = run_inference_efficiency(
            benchmark_data, [causal], observed_ratios=(1.0,), max_trajectories=10
        )
        assert "observed_ratio" in format_efficiency(efficiency)
