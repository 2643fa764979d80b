"""Tests for the CLI entry point, yamlish dumps edge cases, and remaining
corners of the substrate not covered elsewhere."""

import pytest

from repro.__main__ import EXPERIMENTS, cmd_bench, cmd_list, main
from repro.core import yamlish
from repro.core.yamlish import YamlishError


class TestCli:
    def test_list_covers_every_benchmark_file(self, capsys):
        import pathlib

        assert cmd_list() == 0
        output = capsys.readouterr().out
        bench_dir = pathlib.Path(__file__).parent.parent / "benchmarks"
        bench_files = {p.name for p in bench_dir.glob("test_*.py")}
        listed = {filename for filename, _desc in EXPERIMENTS.values()}
        assert listed == bench_files
        for key in EXPERIMENTS:
            assert key in output

    def test_unknown_experiment_id_rejected(self, capsys):
        assert cmd_bench(["nonexistent-figure"]) == 2
        assert "unknown experiment ids" in capsys.readouterr().err

    def test_main_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_main_list(self, capsys):
        assert main(["list"]) == 0
        assert "table2" in capsys.readouterr().out

    def test_examples_listing(self, capsys):
        assert main(["examples"]) == 0
        output = capsys.readouterr().out
        assert "quickstart.py" in output
        assert "ml_pipeline.py" in output

    def test_observe_reports_metrics_and_valid_chain(self, capsys):
        assert main(["observe"]) == 0
        output = capsys.readouterr().out
        assert "audit chain: valid" in output
        # Well below the tracer's retention bound: every span is kept.
        assert "# trace: 27 finished spans, 18 distinct operations" in output
        metric_names = {line.split(" ")[2]
                        for line in output.splitlines()
                        if line.startswith("# TYPE ")}
        assert len(metric_names) >= 8
        assert "palaemon_attestations_total" in metric_names

    def test_observe_same_seed_same_output(self, capsys):
        assert main(["observe", "--seed", "repeatable"]) == 0
        first = capsys.readouterr().out
        assert main(["observe", "--seed", "repeatable"]) == 0
        assert capsys.readouterr().out == first

    def test_chaos_prints_the_recovery_summary(self, capsys):
        assert main(["chaos", "--seed", "7"]) == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("argv", [["chaos", "--check"], ["bench-tags"],
                                      ["bench-dispatch"]])
    def test_removed_commands_rejected(self, argv):
        with pytest.raises(SystemExit):
            main(argv)


class TestYamlishDumps:
    def test_empty_top_level_mapping_rejected(self):
        with pytest.raises(YamlishError):
            yamlish.dumps({})

    def test_non_string_key_rejected(self):
        with pytest.raises(YamlishError, match="keys must be"):
            yamlish.dumps({3: "x"})

    def test_awkward_keys_quoted(self):
        text = yamlish.dumps({"needs: quoting": 1})
        assert yamlish.loads(text) == {"needs: quoting": 1}

    def test_multiline_string_rejected(self):
        with pytest.raises(YamlishError, match="multi-line"):
            yamlish.dumps({"k": "line1\nline2"})

    def test_bytes_scalar_rejected(self):
        with pytest.raises(YamlishError, match="unsupported scalar"):
            yamlish.dumps({"k": b"bytes"})

    def test_empty_list_value(self):
        assert yamlish.loads(yamlish.dumps({"k": []})) == {"k": []}

    def test_list_of_mappings(self):
        document = {"services": [{"name": "a"}, {"name": "b", "n": 2}]}
        assert yamlish.loads(yamlish.dumps(document)) == document

    def test_booleans_and_null(self):
        document = {"t": True, "f": False, "n": None}
        assert yamlish.loads(yamlish.dumps(document)) == document


class TestNetworkJitter:
    def test_jitter_spreads_latencies(self):
        from repro.crypto.primitives import DeterministicRandom
        from repro.sim.core import Simulator
        from repro.sim.network import Network, Site

        sim = Simulator()
        net = Network(sim, DeterministicRandom(b"jitter"),
                      jitter_fraction=0.5)
        a = net.endpoint("a", Site.SAME_RACK)
        b = net.endpoint("b", Site.CONTINENTAL_7000KM)
        arrivals = []

        def main():
            for index in range(20):
                sent = sim.now
                a.send(b, index, size_bytes=0)
                yield b.receive()
                arrivals.append(sim.now - sent)

        sim.run_process(main())
        assert len(set(arrivals)) > 10  # genuinely jittered
        base = 0.045  # one-way 7000 km
        assert all(base <= latency <= base * 1.6 for latency in arrivals)


class TestWorkloadWarmup:
    def test_warmup_requests_excluded(self):
        from repro.crypto.primitives import DeterministicRandom
        from repro.sim.core import Simulator
        from repro.sim.workload import OpenLoopGenerator

        sim = Simulator()

        def factory(_request_id):
            yield sim.timeout(0.001)

        generator = OpenLoopGenerator(sim, rate=100.0, factory=factory,
                                      rng=DeterministicRandom(b"warm"),
                                      duration=2.0, warmup=1.0)
        sim.run_process(generator.run())
        # Roughly half the issued requests fall inside the warmup window.
        assert len(generator.latencies) < generator.issued
        assert generator.issued > 150


class TestRoteProcessingParameter:
    def test_faster_processing_raises_rate(self):
        from repro.counters.rote import ROTECounterGroup
        from repro.sim.core import Simulator

        def rate(processing):
            sim = Simulator()
            group = ROTECounterGroup(sim, processing_seconds=processing)

            def main():
                start = sim.now
                for _ in range(50):
                    yield sim.process(group.increment())
                return 50 / (sim.now - start)

            return sim.run_process(main())

        assert rate(0.5e-3) > rate(2.0e-3)
