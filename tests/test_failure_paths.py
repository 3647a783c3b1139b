"""Failure-injection tests: the library must fail loudly, not drift."""

import pytest

from repro.config.presets import HP_CLIENT, LP_CLIENT, SERVER_BASELINE
from repro.errors import ExperimentError
from repro.hardware.machine import Machine
from repro.workloads.registry import workload_by_name


def drop_one_request(testbed, victim_id=3):
    """Inject a lost response: the victim request never completes."""
    original = testbed.generator._measured

    def lossy(machine, request, timestamp_us):
        if request.request_id == victim_id:
            return
        original(machine, request, timestamp_us)

    testbed.generator._measured = lossy


# The fault is injected on the generator instance, so the fused kernel
# must honour the override exactly as the reference loop does.
@pytest.mark.parametrize("engine", ["reference", "vectorized"])
class TestTestbedFailures:
    def test_incomplete_run_detected(self, engine):
        """If a request goes missing (lost packet, wiring bug), run()
        must raise rather than return statistics over a partial
        sample."""
        testbed = workload_by_name("memcached").build_testbed(
            seed=1, client_config=HP_CLIENT, server_config=SERVER_BASELINE,
            qps=50_000, num_requests=50, engine=engine)
        drop_one_request(testbed)
        with pytest.raises(ExperimentError):
            testbed.run()

    def test_single_use_enforced_even_after_failure(self, engine):
        testbed = workload_by_name("memcached").build_testbed(
            seed=1, client_config=HP_CLIENT, server_config=SERVER_BASELINE,
            qps=50_000, num_requests=50, engine=engine)
        drop_one_request(testbed)
        with pytest.raises(ExperimentError):
            testbed.run()
        with pytest.raises(ExperimentError):
            testbed.run()


class TestMachineFailures:
    def test_core_exhaustion(self):
        machine = Machine("tiny", LP_CLIENT, physical_cores=2)
        machine.new_core()
        machine.new_core()
        with pytest.raises(ValueError):
            machine.new_core()

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            Machine("broken", LP_CLIENT, physical_cores=0)

    def test_describe_mentions_topology(self):
        machine = Machine("box", LP_CLIENT, physical_cores=20)
        text = machine.describe()
        assert "20C/40T" in text  # SMT on -> 40 threads

    def test_smt_off_halves_threads(self):
        machine = Machine("box", LP_CLIENT.with_smt(False),
                          physical_cores=20)
        assert machine.logical_cpus == 20


class TestExperimentFailures:
    def test_builder_exception_propagates(self):
        from repro.core.experiment import Experiment

        def broken_builder(seed):
            raise RuntimeError("testbed assembly failed")

        with pytest.raises(RuntimeError):
            Experiment(broken_builder, runs=2).run()
