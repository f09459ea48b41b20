"""The per-node runtime kernel (§3, Fig. 2).

A kernel is a passive substrate on which actors execute: the actor
interface on top (exported to the compiler via the execution engine's
inline hooks), the communication and program-load modules at the
bottom, and the node manager, dispatcher and name server in between.
All computations on a node share one address space — the kernel does
not discriminate between actors created by different programs.
"""

from __future__ import annotations

from typing import Callable, Dict, Type, TYPE_CHECKING, Union

from repro.actors.behavior import Behavior, behavior_of, is_behavior_class
from repro.am.bulk import BulkManager
from repro.am.cmam import Endpoint
from repro.am.flowcontrol import AcceptAll, MinimalFlowControl
from repro.am.reliable import ReliableTransport
from repro.errors import LoadError
from repro.runtime.calls import ContinuationTable, GeneratorDriver, ReplyRouter
from repro.runtime.creation import CreationService
from repro.runtime.delivery import DeliveryService
from repro.runtime.dispatcher import Dispatcher
from repro.runtime.execution import Execution
from repro.runtime.gc import GcService
from repro.runtime.groups import GroupManager
from repro.runtime.loadbalance import LoadBalancer
from repro.runtime.migration import MigrationService
from repro.runtime.nametable import NameTable
from repro.runtime.node_manager import NodeManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.system import HalRuntime


class Kernel:
    """One processing element's runtime kernel."""

    def __init__(self, runtime: "HalRuntime", node_id: int) -> None:
        self.runtime = runtime
        self.node_id = node_id
        self.node = runtime.machine.nodes[node_id]
        self.config = runtime.config
        self.costs = runtime.costs
        self.stats = runtime.machine.stats
        self.spans = runtime.machine.spans
        #: Causal context of the execution currently on this node's
        #: CPU: ``(trace_id, span_id)`` while a traced message, task or
        #: continuation body runs, else None.  Sends issued from within
        #: that body parent their spans here.  The trace ID's low bit
        #: carries the head-sampling verdict; an unsampled execution
        #: still sets ``(trace_id, 0)`` so children inherit the trace
        #: (and its decision) instead of rooting fresh ones.
        self.trace_ctx = None
        self.network_params = runtime.config.network

        # communication module (CMAM endpoint + bulk protocol)
        self.endpoint = Endpoint(
            self.node,
            runtime.machine.network,
            runtime.endpoint_directory,
            self.stats,
            send_overhead_us=self.costs.am_send_overhead_us,
            receive_overhead_us=self.costs.am_receive_overhead_us,
        )
        # Reliable-delivery sublayer: attached exactly when the machine
        # injects faults (or config forces it), so fault-free runs keep
        # the bare endpoint fast path.
        rel_cfg = self.config.reliability
        rel_on = (
            rel_cfg.enabled
            if rel_cfg.enabled is not None
            else runtime.machine.faults is not None
        )
        self.reliable = (
            ReliableTransport(self.endpoint, rel_cfg, self.stats,
                              spans=self.spans)
            if rel_on
            else None
        )
        policy = (
            MinimalFlowControl(1) if self.config.flow_control else AcceptAll()
        )
        self.bulk = BulkManager(
            self.endpoint,
            policy,
            request_cpu_us=self.costs.am_receive_overhead_us,
            ack_cpu_us=self.costs.am_send_overhead_us,
        )

        # name server
        self.table = NameTable(node_id)

        # scheduling + execution
        self.dispatcher = Dispatcher(self)
        self.execution = Execution(self)
        self.continuations = ContinuationTable(node_id)
        self.reply_router = ReplyRouter(self)
        self.driver = GeneratorDriver(self)

        # services
        self.delivery = DeliveryService(self)
        self.creation = CreationService(self)
        self.migration = MigrationService(self)
        self.groups = GroupManager(self)
        self.balancer = LoadBalancer(self)

        # program load module: behaviour + task registries
        self.behaviors: Dict[str, Behavior] = {}
        self.tasks: Dict[str, Callable] = {}
        self.loaded_programs: set[str] = set()

        # node manager registers every AM handler
        self.node_manager = NodeManager(self)

        # distributed garbage collection (extension, §9)
        self.gc = GcService(self)

    # ------------------------------------------------------------------
    # program load module
    # ------------------------------------------------------------------
    def register_behavior(self, beh_or_cls: Union[Behavior, Type]) -> Behavior:
        beh = (
            behavior_of(beh_or_cls)
            if is_behavior_class(beh_or_cls)
            else beh_or_cls
        )
        if not isinstance(beh, Behavior):
            raise LoadError(f"{beh_or_cls!r} is not a behaviour")
        existing = self.behaviors.get(beh.name)
        if existing is not None and existing is not beh:
            raise LoadError(
                f"node {self.node_id}: behaviour name collision {beh.name!r}"
            )
        self.behaviors[beh.name] = beh
        return beh

    def register_task(self, name: str, fn: Callable) -> None:
        existing = self.tasks.get(name)
        if existing is not None and existing is not fn:
            raise LoadError(f"node {self.node_id}: task name collision {name!r}")
        self.tasks[name] = fn

    def link_program(self, program_name: str) -> None:
        """Dynamically load a program image announced by the front-end
        (the registries were populated by the loader; this charges the
        linking cost on this node)."""
        if program_name in self.loaded_programs:
            return
        self.loaded_programs.add(program_name)
        program = self.runtime.frontend.program(program_name)
        self.node.charge(self.costs.load_behavior_us * max(1, len(program.behaviors)))
        self.stats.incr("load.linked")

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def behavior_for(self, ref: Union[str, Type, Behavior]) -> Behavior:
        """Resolve a behaviour by name, class or object."""
        if isinstance(ref, Behavior):
            return ref
        if isinstance(ref, str):
            try:
                return self.behaviors[ref]
            except KeyError:
                raise LoadError(
                    f"node {self.node_id}: behaviour {ref!r} is not loaded; "
                    "add it to the program image"
                ) from None
        if is_behavior_class(ref):
            beh = behavior_of(ref)
            loaded = self.behaviors.get(beh.name)
            if loaded is None:
                raise LoadError(
                    f"node {self.node_id}: behaviour {beh.name!r} is not "
                    "loaded; load it with HalRuntime.load(...)"
                )
            return loaded
        raise LoadError(f"{ref!r} is not a behaviour")

    def task_fn(self, name: str) -> Callable:
        try:
            return self.tasks[name]
        except KeyError:
            raise LoadError(
                f"node {self.node_id}: task {name!r} is not loaded"
            ) from None

    # ------------------------------------------------------------------
    def local_actor_count(self) -> int:
        return sum(1 for _ in self.table.local_actors())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Kernel(n{self.node_id})"
