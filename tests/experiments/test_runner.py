"""ExperimentRunner tests (caching, point runs, batch runs)."""

from repro.experiments.runner import ExperimentRunner


class TestCaching:
    def test_escape_built_once(self, net2d):
        runner = ExperimentRunner(net2d)
        assert runner.escape is runner.escape

    def test_traffic_cached_per_seed(self, net2d):
        runner = ExperimentRunner(net2d)
        assert runner.traffic("randperm", 1) is runner.traffic("randperm", 1)
        assert runner.traffic("randperm", 1) is not runner.traffic("randperm", 2)

    def test_root_forwarded_to_escape(self, net2d):
        runner = ExperimentRunner(net2d, root=9)
        assert runner.escape.root == 9


class TestPoints:
    def test_run_point_returns_result(self, net2d):
        runner = ExperimentRunner(net2d)
        res = runner.run_point("PolSP", "uniform", 0.2, warmup=50, measure=100)
        assert res.offered == 0.2
        assert res.accepted > 0.1

    def test_run_batch_completes(self, net2d):
        runner = ExperimentRunner(net2d)
        res = runner.run_batch("PolSP", "randperm", 3, series_interval=20)
        assert res.completion_slot is not None
        assert res.delivered == 3 * net2d.n_servers
        assert res.time_series
