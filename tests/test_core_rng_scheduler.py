"""Tests for the RNG-aware queue policy and the application registry."""

import pytest

from repro.controller.config import ControllerConfig
from repro.controller.memory_controller import ChannelController
from repro.controller.request import make_read, make_rng
from repro.core.rng_scheduler import ApplicationRegistry, RNGAwareQueuePolicy
from repro.dram.dram_system import DRAMSystem
from repro.trng.drange import DRaNGe


def build_controller(registry, stall_limit=100):
    dram = DRAMSystem()
    policy = RNGAwareQueuePolicy(registry, stall_limit=stall_limit)
    controller = ChannelController(
        channel=dram.channels[0],
        dram=dram,
        config=ControllerConfig(),
        trng=DRaNGe(),
        queue_policy=policy,
        separate_rng_queue=True,
    )
    return dram, controller, policy


def addr(dram, bank=0, row=0, column=0):
    return dram.mapping.encode(channel=0, bank=bank, row=row, column=column)


class TestApplicationRegistry:
    def test_default_priority_zero(self):
        registry = ApplicationRegistry()
        assert registry.priority(5) == 0

    def test_set_and_get_priority(self):
        registry = ApplicationRegistry({0: 2})
        registry.set_priority(1, 3)
        assert registry.priority(0) == 2
        assert registry.priority(1) == 3

    def test_rng_application_marking(self):
        registry = ApplicationRegistry()
        assert not registry.is_rng_application(0)
        registry.mark_rng_application(0)
        assert registry.is_rng_application(0)
        assert registry.rng_applications == {0}


class TestQueueSelection:
    def test_empty_queues_return_none(self):
        registry = ApplicationRegistry()
        dram, controller, policy = build_controller(registry)
        assert policy.select(controller, 0) is None

    def test_only_regular_queue(self):
        registry = ApplicationRegistry()
        dram, controller, policy = build_controller(registry)
        read = make_read(addr(dram), 0, 0)
        controller.read_queue.push(read)
        queue, request = policy.select(controller, 0)
        assert request is read

    def test_only_rng_queue(self):
        registry = ApplicationRegistry()
        registry.mark_rng_application(1)
        dram, controller, policy = build_controller(registry)
        rng = make_rng(16, 1, 0)
        controller.rng_queue.push(rng)
        queue, request = policy.select(controller, 0)
        assert request is rng

    def test_rng_prioritized_when_rng_app_has_higher_priority(self):
        registry = ApplicationRegistry({0: 0, 1: 1})
        registry.mark_rng_application(1)
        dram, controller, policy = build_controller(registry)
        read = make_read(addr(dram), 0, cycle=0)
        rng = make_rng(16, 1, cycle=5)
        controller.read_queue.push(read)
        controller.rng_queue.push(rng)
        queue, request = policy.select(controller, 10)
        assert request is rng
        assert policy.stats.rng_queue_choices == 1

    def test_non_rng_prioritized_when_it_has_higher_priority(self):
        registry = ApplicationRegistry({0: 1, 1: 0})
        registry.mark_rng_application(1)
        dram, controller, policy = build_controller(registry)
        read = make_read(addr(dram), 0, cycle=5)
        rng = make_rng(16, 1, cycle=0)
        controller.read_queue.push(read)
        controller.rng_queue.push(rng)
        queue, request = policy.select(controller, 10)
        assert request is read

    def test_non_rng_prioritized_exception_for_rng_apps_own_read(self):
        # The regular queue's oldest request belongs to the RNG app and is
        # younger than the RNG request -> the RNG queue is served first,
        # even though the non-RNG application has the higher priority.
        registry = ApplicationRegistry({0: 1, 1: 0})
        registry.mark_rng_application(1)
        dram, controller, policy = build_controller(registry)
        rng = make_rng(16, 1, cycle=0)
        rng_apps_read = make_read(addr(dram), 1, cycle=5)
        non_rng_read = make_read(addr(dram, bank=1, row=1), 0, cycle=8)
        controller.rng_queue.push(rng)
        controller.read_queue.push(rng_apps_read)
        controller.read_queue.push(non_rng_read)
        queue, request = policy.select(controller, 10)
        assert request is rng
        assert policy.stats.priority_inversions_prevented == 1

    def test_equal_priority_older_regular_read_goes_first(self):
        registry = ApplicationRegistry()
        registry.mark_rng_application(1)
        dram, controller, policy = build_controller(registry)
        read = make_read(addr(dram), 0, cycle=0)
        rng = make_rng(16, 1, cycle=5)
        controller.read_queue.push(read)
        controller.rng_queue.push(rng)
        queue, request = policy.select(controller, 10)
        assert request is read

    def test_equal_priority_tie_goes_to_rng(self):
        registry = ApplicationRegistry()
        registry.mark_rng_application(1)
        dram, controller, policy = build_controller(registry)
        rng = make_rng(16, 1, cycle=0)
        read = make_read(addr(dram), 0, cycle=5)
        controller.rng_queue.push(rng)
        controller.read_queue.push(read)
        queue, request = policy.select(controller, 10)
        assert request is rng

    def test_equal_priority_row_hit_served_first(self):
        registry = ApplicationRegistry()
        registry.mark_rng_application(1)
        dram, controller, policy = build_controller(registry)
        controller.channel.service_access(0, 7, now=0)  # open row 7
        rng = make_rng(16, 1, cycle=0)
        hit = make_read(addr(dram, bank=0, row=7, column=2), 0, cycle=5)
        controller.rng_queue.push(rng)
        controller.read_queue.push(hit)
        queue, request = policy.select(controller, 10)
        assert request is hit


class TestStarvationPrevention:
    def test_deprioritized_queue_served_after_stall_limit(self):
        registry = ApplicationRegistry({0: 0, 1: 1})
        registry.mark_rng_application(1)
        dram, controller, policy = build_controller(registry, stall_limit=50)
        read = make_read(addr(dram), 0, cycle=0)
        controller.read_queue.push(read)
        controller.rng_queue.push(make_rng(16, 1, cycle=0))
        controller.rng_queue.push(make_rng(16, 1, cycle=1))

        queue, first = policy.select(controller, 10)
        assert first.is_rng  # RNG app has priority
        # After the stall limit elapses, the starved regular read is chosen.
        queue, second = policy.select(controller, 10 + 60)
        assert second is read
        assert policy.stats.starvation_interventions == 1

    def test_no_intervention_before_limit(self):
        registry = ApplicationRegistry({0: 0, 1: 1})
        registry.mark_rng_application(1)
        dram, controller, policy = build_controller(registry, stall_limit=100)
        controller.read_queue.push(make_read(addr(dram), 0, cycle=0))
        controller.rng_queue.push(make_rng(16, 1, cycle=0))
        queue, request = policy.select(controller, 10)
        assert request.is_rng
        queue, request = policy.select(controller, 50)
        assert request.is_rng
        assert policy.stats.starvation_interventions == 0

    def test_invalid_stall_limit(self):
        with pytest.raises(ValueError):
            RNGAwareQueuePolicy(ApplicationRegistry(), stall_limit=0)


class TestServeFastPath:
    """The controller's inlined select for the RNG-aware policy.

    With an empty RNG queue, ``_schedule_regular`` and ``serve_batch``
    select by index and book the choice through ``note_regular_choice``
    instead of calling ``select``.  At every such serve of a DR-STRaNGe
    and a Greedy Idle run, a deep copy of the controller takes the
    generic path (``queue_policy.select`` + ``_issue_regular``) from the
    same state; both must issue the same request and leave the same
    policy state.  The deprioritised queue is forced through ``None``,
    ``"rng"`` and ``"regular"`` before each serve, so every branch of the
    bookkeeping is compared.
    """

    @pytest.mark.parametrize("design", ["dr-strange", "greedy-idle"])
    def test_fast_path_matches_policy_select(self, design):
        import copy
        import sys

        from repro.dram.address import AddressMapping
        from repro.dram.timing import DRAMOrganization
        from repro.sim.config import SimulationConfig
        from repro.sim.system import System
        from repro.workloads.mixes import build_traces, multi_core_group_mixes

        mix = multi_core_group_mixes(8, workloads_per_group=1)["H"][0]
        traces = build_traces(mix, 1_000, seed=4, mapping=AddressMapping(DRAMOrganization()))
        system = System(traces, SimulationConfig(design=design))
        keep = {id(core): core for core in system.processor.cores}
        states = (None, "rng", "regular")
        callers = {}
        serves = [0]

        def install(controller):
            policy = controller.queue_policy
            book = policy.note_regular_choice
            channel = controller.channel
            access = channel.service_access
            expected = []  # the twin's issue cycle, checked by the real issue

            def checked(now, deprioritized=None):
                caller = sys._getframe(1).f_code.co_name
                callers[caller] = callers.get(caller, 0) + 1
                if caller == "_choose_regular":  # the generic path itself
                    return book(now, deprioritized)
                assert not controller.rng_queue._entries
                policy._deprioritized = states[serves[0] % 3]
                policy._deprioritized_since = now - 1 - serves[0] % 7
                serves[0] += 1
                read_queue = controller.read_queue
                index = controller.scheduler.select_index(read_queue, controller, now)
                twin = copy.deepcopy(controller, dict(keep))
                del twin.queue_policy.note_regular_choice  # the class methods again
                del twin.channel.service_access
                queue, request = twin.queue_policy.select(twin, now)
                twin._issue_regular(queue, request, now)
                book(now, deprioritized)
                twin_policy = twin.queue_policy
                assert request.request_id == read_queue._entries[index].request_id
                assert twin_policy.stats == policy.stats
                assert twin_policy._deprioritized == policy._deprioritized
                assert twin_policy._deprioritized_since == policy._deprioritized_since
                expected.append(request.issue_cycle)

            def checked_access(bank, row, now, is_write=False):
                if expected:
                    assert now == expected.pop()
                return access(bank, row, now, is_write=is_write)

            policy.note_regular_choice = checked
            channel.service_access = checked_access

        for controller in system.controllers:
            assert controller._fast_policy
            install(controller)
        system.run()
        assert serves[0] >= 3
        assert callers.get("_schedule_regular", 0) > 0, callers
        assert callers.get("serve_batch", 0) > 0, callers
