"""Full-scale run of the complete experiment suite (the shipped report).

Executes ``run_all(quick=False)`` — the exact computation behind
``benchmarks/results_full_report.txt`` and EXPERIMENTS.md — and asserts
the cross-experiment consistency properties the individual suites cannot
see.  A few seconds of runtime buys the guarantee that the committed
report is reproducible by the committed code.
"""

from pathlib import Path

import pytest

from repro.experiments import exp_growth
from repro.experiments.runner import render_all, run_all


@pytest.fixture(scope="module")
def results():
    return run_all(quick=False)


class TestFullScaleSuite:
    def test_all_experiments_present(self, results):
        assert set(results) == {
            "E1", "E2", "E3", "E4a", "E4b", "E5",
            "X1", "EPM", "X3", "X4", "X5", "X7a", "X7b", "THM",
        }

    def test_e1_uses_paper_configuration(self, results):
        assert results["E1"].config["grid"] == (32, 32)
        assert results["E1"].config["num_disks"] == 16
        assert results["E1"].x_values[-1] == 1024

    def test_e1_and_e4_agree_at_shared_point(self, results):
        # E4a's (2x2, M=16) point and a dedicated evaluation must agree:
        # two independent code paths, one number.
        e4a = results["E4a"]
        index = e4a.x_values.index(16)
        from repro.core.evaluator import SchemeEvaluator
        from repro.core.grid import Grid

        direct = {
            r.scheme: r.mean_response_time
            for r in SchemeEvaluator(
                Grid((32, 32)), 16
            ).evaluate_shapes([(2, 2)])
        }
        for scheme, value in direct.items():
            assert e4a.series[scheme][index] == pytest.approx(value)

    def test_every_series_at_least_optimal_everywhere(self, results):
        for key in ("E1", "E2", "E4a", "E4b", "E5", "X1", "EPM",
                    "X3", "X4"):
            result = results[key]
            for name in result.series:
                for rt, opt in zip(result.series[name], result.optimal):
                    assert rt >= opt - 1e-9, (key, name)

    def test_x7_single_failure_availability_contract(self, results):
        # The robustness headline at paper scale: one failed disk loses
        # queries on every unreplicated scheme, none with chaining.
        avail = results["X7b"]
        index = avail.x_values.index(1)
        assert avail.series["dm+chain"][index] == 1.0
        for name in ("dm", "fx-auto", "ecc", "hcam"):
            assert avail.series[name][index] < 1.0

    def test_thm_matches_paper_and_refinement(self, results):
        exists = [r.exists for r in results["THM"]]
        assert exists == [
            True, True, True, False, True, False, False,
        ]

    def test_report_renders_completely(self, results):
        report = render_all(results)
        for token in ("[E1]", "[E2]", "[E4a]", "[E4b]", "[E5]", "[X1]",
                      "[EPM]", "[X3]", "[X4]", "[X5]", "[X7a]", "[X7b]",
                      "[THM]", "[T1]"):
            assert token in report

    def test_report_is_deterministic(self, results):
        # A second full run must reproduce the first bit for bit.
        again = run_all(quick=False)
        assert render_all(again) == render_all(results)

    def test_report_matches_committed_file(self, results):
        # Composed exactly as scripts/generate_report.py writes it: the
        # suite's report, a blank line, then the X6 growth table.
        committed = (
            Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "results_full_report.txt"
        )
        text = (
            render_all(results)
            + "\n\n"
            + exp_growth.render(exp_growth.run())
            + "\n"
        )
        assert text.encode("utf-8") == committed.read_bytes()
