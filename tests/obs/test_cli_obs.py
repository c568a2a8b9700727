"""CLI surface of the observability layer.

``repro-decluster experiment … --trace/--metrics-out/--log-level`` and
the ``obs summary`` subcommand.
"""

import json
import logging

import pytest

from repro.cli import main
from repro.obs.log import ROOT_LOGGER_NAME
from repro.obs.metrics import reset_global_registry
from repro.obs.summary import load_trace
from repro.obs.trace import global_tracer


@pytest.fixture(autouse=True)
def clean_obs():
    reset_global_registry()
    tracer = global_tracer()
    tracer.disable()
    tracer.clear()
    yield
    tracer.disable()
    tracer.clear()
    reset_global_registry()
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)


class TestExperimentInstrumentation:
    def test_trace_flag_writes_jsonl(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert main(
            ["experiment", "E2", "--quick", "--trace", str(trace_path)]
        ) == 0
        spans = load_trace(trace_path)
        assert spans
        names = {span["name"] for span in spans}
        assert "runner.experiment" in names
        assert "engine.sliding_response_times" in names
        assert f"trace: {len(spans)} span(s)" in capsys.readouterr().err

    def test_replica_planner_records_batch_span_and_counters(
        self, tmp_path
    ):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["experiment", "X4", "--quick", "--trace", str(trace_path),
             "--metrics-out", str(metrics_path)]
        ) == 0
        batches = [
            span for span in load_trace(trace_path)
            if span["name"] == "replication.plan_batch"
        ]
        assert batches
        for span in batches:
            assert 0 < span["attrs"]["solves"] <= span["attrs"]["queries"]
        counters = json.loads(metrics_path.read_text())["aggregate"][
            "counters"
        ]
        assert counters["replication.plan.batch_queries"] == sum(
            span["attrs"]["queries"] for span in batches
        )
        assert counters["replication.plan.solves"] == sum(
            span["attrs"]["solves"] for span in batches
        )

    def test_load_sweep_records_one_span_per_scheme(self, tmp_path):
        from repro.experiments.exp_load_sweep import DEFAULT_SCHEMES

        trace_path = tmp_path / "trace.jsonl"
        assert main(
            ["experiment", "X5", "--quick", "--trace", str(trace_path)]
        ) == 0
        sweeps = [
            span for span in load_trace(trace_path)
            if span["name"] == "simulation.saturation_sweep"
        ]
        assert [span["attrs"] for span in sweeps] == [
            {"queries": 100, "rates": 2}
        ] * len(DEFAULT_SCHEMES)

    def test_growth_records_insert_spans_and_split_counter(self, tmp_path):
        from repro.experiments import exp_growth

        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["experiment", "X6", "--trace", str(trace_path),
             "--metrics-out", str(metrics_path)]
        ) == 0
        inserts = [
            span for span in load_trace(trace_path)
            if span["name"] == "gridfile.insert_many"
        ]
        counters = json.loads(metrics_path.read_text())["aggregate"][
            "counters"
        ]
        # The CLI's X6 is exp_growth.run()'s default 1500-record stream;
        # its "splits" row is each file's stats()["num_splits"].
        rows = exp_growth.run()
        assert [span["attrs"] for span in inserts] == [
            {"records": 1500, "splits": int(row["splits"])}
            for row in rows.values()
        ]
        assert counters["gridfile.splits"] == sum(
            span["attrs"]["splits"] for span in inserts
        )

    def test_metrics_out_writes_registry_document(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["experiment", "E2", "--quick",
             "--metrics-out", str(metrics_path)]
        ) == 0
        document = json.loads(metrics_path.read_text())
        counters = document["aggregate"]["counters"]
        assert counters.get("cache.hits", 0) + counters.get(
            "cache.misses", 0
        ) > 0
        assert (
            document["aggregate"]["histograms"][
                "experiment.E2.seconds"
            ]["count"] == 1
        )

    def test_without_flags_nothing_is_recorded(self, tmp_path):
        assert main(["experiment", "E2", "--quick"]) == 0
        assert global_tracer().spans() == []

    def test_log_level_configures_the_repro_logger(self):
        assert main(
            ["experiment", "E2", "--quick", "--log-level", "debug"]
        ) == 0
        logger = logging.getLogger(ROOT_LOGGER_NAME)
        assert logger.level == logging.DEBUG
        assert any(
            getattr(handler, "_repro_obs_handler", False)
            for handler in logger.handlers
        )


class TestObsSummaryCommand:
    def _make_artifacts(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["experiment", "E2", "--quick",
             "--trace", str(trace_path),
             "--metrics-out", str(metrics_path)]
        ) == 0
        return trace_path, metrics_path

    def test_summary_renders_both_files(self, capsys, tmp_path):
        trace_path, metrics_path = self._make_artifacts(tmp_path)
        capsys.readouterr()
        assert main(
            ["obs", "summary", "--metrics", str(metrics_path),
             "--trace", str(trace_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "metrics summary" in out
        assert "trace summary" in out
        assert "E2" in out

    def test_summary_with_metrics_only(self, capsys, tmp_path):
        _, metrics_path = self._make_artifacts(tmp_path)
        capsys.readouterr()
        assert main(
            ["obs", "summary", "--metrics", str(metrics_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "metrics summary" in out
        assert "trace summary" not in out

    def test_summary_without_inputs_is_usage_error(self, capsys):
        assert main(["obs", "summary"]) == 2
        assert "obs summary:" in capsys.readouterr().err

    def test_summary_on_wrong_file_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "not_metrics.json"
        path.write_text(json.dumps({"foo": 1}))
        assert main(["obs", "summary", "--metrics", str(path)]) == 1
        assert "obs summary:" in capsys.readouterr().err
