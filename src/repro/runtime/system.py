"""The user-facing runtime facade.

:class:`HalRuntime` boots a partition on the selected execution
backend (``config.backend``: the discrete-event simulator or the
real-time threaded machine), one kernel per processing element, the
spanning-tree multicaster, and the front-end.  External drivers
(examples, tests, benchmarks) use it to load programs, spawn actors,
send messages, perform synchronous calls and run the machine to
quiescence.  The runtime itself only touches the platform interfaces
(:mod:`repro.platform.base`), never a backend module directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Type, Union

from repro.actors.behavior import behavior_of, is_behavior_class
from repro.am.broadcast import TreeMulticaster
from repro.am.cmam import Endpoint
from repro.config import RuntimeConfig
from repro.errors import DeliveryError, ReproError
from repro.platform import make_machine
from repro.runtime.costmodel import CostModel
from repro.runtime.frontend import FrontEnd
from repro.runtime.kernel import Kernel
from repro.runtime.names import ActorRef, DescState
from repro.runtime.program import HalProgram


class HalRuntime:
    """A booted HAL runtime on a CM-5-like partition (simulated or
    real-time threaded, per ``config.backend``)."""

    def __init__(
        self,
        config: Optional[RuntimeConfig] = None,
        *,
        costs: Optional[CostModel] = None,
        trace: bool = False,
        faults=None,
        backend: Optional[str] = None,
    ) -> None:
        self.config = config or RuntimeConfig()
        self.costs = costs or CostModel()
        self.machine = make_machine(
            self.config, backend=backend, trace=trace, faults=faults
        )
        #: Distributed machines (the mp backend) hold no kernels in
        #: this process: each node's kernel lives in a worker process
        #: and driver operations travel as commands over control pipes.
        self._distributed = bool(getattr(self.machine, "distributed", False))
        self.endpoint_directory: Dict[int, Endpoint] = {}
        self.frontend = FrontEnd(self)
        if self._distributed:
            self.kernels: List[Kernel] = []
            self.machine.start_workers(self.costs)
        else:
            self.kernels = [
                Kernel(self, i) for i in range(self.config.num_nodes)
            ]
            self.multicaster = TreeMulticaster(
                self.machine.topology, self.endpoint_directory
            )
            self.multicaster.install()
            # Quiescence probes: ready-but-unscheduled work sits in the
            # dispatchers, above the platform's view — register one
            # probe per kernel so machine.quiescent() can see it.
            for kernel in self.kernels:
                self.machine.register_work_probe(
                    lambda k=kernel: bool(k.dispatcher.ready)
                )
        self._anon_programs = 0

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self.machine.now

    @property
    def stats(self):
        return self.machine.stats

    @property
    def spans(self):
        """The machine's causal span recorder (a null recorder unless
        the runtime was built with ``trace=True``)."""
        return self.machine.spans

    def kernel(self, node: int) -> Kernel:
        if self._distributed:
            raise ReproError(
                "kernels live in worker processes on a distributed "
                "backend; drive the runtime through its public API"
            )
        return self.kernels[node]

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load(self, program: HalProgram) -> None:
        """Load (and HAL-compile) a program image on every node."""
        if self._distributed:
            # Each worker compiles and links its own copy (behaviours
            # and tasks ship by reference, so they must be importable
            # module-level objects).
            self.machine.load_program(program)
            return
        self.frontend.load(program)

    def load_behaviors(self, *classes: Type, tasks: Optional[Dict] = None) -> None:
        """Convenience: wrap loose behaviours into an anonymous program
        and load it."""
        self._anon_programs += 1
        program = HalProgram(f"__anon{self._anon_programs}__")
        for cls in classes:
            program.behavior(cls)
        for name, fn in (tasks or {}).items():
            program.tasks[name] = fn
        self.load(program)

    def _ensure_loaded(self, cls: Type) -> None:
        if not is_behavior_class(cls):
            raise ReproError(f"{cls!r} is not a @behavior class")
        name = behavior_of(cls).name
        if self._distributed:
            if name not in self.machine.loaded_behaviors:
                self.load_behaviors(cls)
            return
        if name not in self.kernels[0].behaviors:
            self.load_behaviors(cls)

    # ------------------------------------------------------------------
    # external driver operations
    # ------------------------------------------------------------------
    def spawn(self, cls: Type, *args: Any, at: int = 0) -> ActorRef:
        """Create an actor from outside the simulation (loads the
        behaviour on demand)."""
        self._ensure_loaded(cls)
        if self._distributed:
            return self.machine.command(at, ("spawn", cls, args))
        kernel = self.kernels[at]
        return kernel.node.bootstrap(
            lambda: kernel.creation.create(cls, args, at=None)
        )

    def spawn_remote(self, cls: Type, *args: Any, at: int, issuing_node: int = 0) -> ActorRef:
        """Issue a remote creation from ``issuing_node`` (exercises the
        alias latency-hiding path)."""
        self._ensure_loaded(cls)
        if self._distributed:
            return self.machine.command(
                issuing_node, ("spawn_remote", cls, args, at)
            )
        kernel = self.kernels[issuing_node]
        return kernel.node.bootstrap(
            lambda: kernel.creation.create(cls, args, at=at)
        )

    def send(self, ref: ActorRef, selector: str, *args: Any, from_node: int = 0) -> None:
        """Inject an asynchronous message from an external driver."""
        if self._distributed:
            self.machine.command(from_node, ("send", ref, selector, args))
            return
        kernel = self.kernels[from_node]
        kernel.node.bootstrap(
            lambda: kernel.delivery.send_message(ref, selector, args)
        )

    def grpnew(self, cls: Type, n: int, *args: Any, placement: str = "cyclic",
               from_node: int = 0):
        """Create an actor group from an external driver."""
        self._ensure_loaded(cls)
        if self._distributed:
            # The issuing worker runs the same grp_create fan-out the
            # in-process kernels do; the spanning-tree messages ride
            # the batched wire frames like any other AM.
            return self.machine.command(
                from_node, ("grpnew", cls, n, args, placement)
            )
        kernel = self.kernels[from_node]
        return kernel.node.bootstrap(
            lambda: kernel.groups.grpnew(cls, n, args, placement=placement)
        )

    def broadcast(self, group, selector: str, *args: Any, from_node: int = 0) -> None:
        if self._distributed:
            self.machine.command(
                from_node, ("broadcast", group, selector, args)
            )
            return
        kernel = self.kernels[from_node]
        kernel.node.bootstrap(
            lambda: kernel.groups.broadcast(group, selector, args)
        )

    def spawn_task(self, fn_name: str, *args: Any, at: int = 0) -> None:
        if self._distributed:
            self.machine.command(at, ("task", fn_name, args))
            return
        kernel = self.kernels[at]
        kernel.node.bootstrap(
            lambda: kernel.creation.spawn_task(fn_name, args, at=None)
        )

    # ------------------------------------------------------------------
    # synchronous call (external request/reply)
    # ------------------------------------------------------------------
    def call(
        self,
        ref: ActorRef,
        selector: str,
        *args: Any,
        from_node: int = 0,
        timeout_us: Optional[float] = None,
    ) -> Any:
        """Send a request and run the simulation until the reply lands.

        This is the external-driver analogue of HAL's ``request``: a
        root join continuation with one slot is allocated on
        ``from_node`` and the simulation advances until it fires.
        """
        if self._distributed:
            reply_id, box = self.machine.new_reply_box()
            self.machine.command(
                from_node, ("call", ref, selector, args, reply_id)
            )
        else:
            kernel = self.kernels[from_node]
            box = []

            def make_request() -> None:
                from repro.actors.message import ReplyTarget

                def fire(cont) -> None:
                    box.append(cont.values()[0])
                    kernel.continuations.discard(cont.cont_id)

                cont = kernel.continuations.new(1, fire, created_at=kernel.node.now)
                target = ReplyTarget(kernel.node_id, cont.cont_id, 0)
                kernel.delivery.send_message(ref, selector, args, reply_to=target)

            kernel.node.bootstrap(make_request)
        self.run(until=timeout_us, stop_when=lambda: bool(box))
        if not box:
            raise DeliveryError(
                f"call {selector!r} did not complete "
                + (f"within {timeout_us} us" if timeout_us else "(machine quiescent)")
            )
        return box[0]

    def make_collector(self, from_node: int = 0):
        """Allocate a one-slot root continuation for external drivers.

        Returns ``(target, box)``: pass ``target`` wherever a
        ReplyTarget is expected (task spawns, explicit CPS); the reply
        value appears in ``box[0]`` once delivered.
        """
        if self._distributed:
            reply_id, box = self.machine.new_reply_box()
            target = self.machine.command(from_node, ("collector", reply_id))
            return target, box
        kernel = self.kernels[from_node]
        box: List[Any] = []

        def mk():
            from repro.actors.message import ReplyTarget

            def fire(cont) -> None:
                box.append(cont.values()[0])
                kernel.continuations.discard(cont.cont_id)

            cont = kernel.continuations.new(1, fire, created_at=kernel.node.now)
            return ReplyTarget(kernel.node_id, cont.cont_id, 0)

        return kernel.node.bootstrap(mk), box

    # ------------------------------------------------------------------
    # execution control
    # ------------------------------------------------------------------
    def run(self, *, until: Optional[float] = None, stop_when=None) -> float:
        """Run the machine to quiescence, a deadline, or a predicate.
        Returns the platform time reached (simulated µs on the sim
        backend, wall-clock µs on the threaded one)."""
        if self.config.load_balance.enabled:
            for kernel in self.kernels:
                kernel.balancer.kick()
        return self.machine.run(until=until, stop_when=stop_when)

    def quiescent(self) -> bool:
        """True when no work remains anywhere: no in-flight messages
        (steal-protocol and reliability-ack chatter excluded) and no
        runnable work held above the platform.  The machine owns the
        judgement — counter arithmetic plus the work probes registered
        at boot on the in-process backends, the token ring's verdict on
        the distributed one."""
        return self.machine.quiescent()

    def close(self) -> None:
        """Release backend resources (worker threads on the threaded
        backend; a no-op on the simulator).  Idempotent."""
        self.machine.shutdown()

    def __enter__(self) -> "HalRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def collect_garbage(self, roots=None):
        """Run one distributed mark & sweep collection (the machine
        must be quiescent).  ``roots`` are refs the environment still
        holds; see :mod:`repro.runtime.gc`."""
        if self._distributed:
            raise ReproError(
                "distributed GC is not supported on the mp backend yet"
            )
        from repro.runtime.gc import collect_garbage
        return collect_garbage(self, roots)

    # ------------------------------------------------------------------
    # introspection (tests / benchmarks)
    # ------------------------------------------------------------------
    def locate(self, ref: ActorRef) -> int:
        """Ground-truth location of an actor (white-box; scans every
        node — not something a real node could do)."""
        if self._distributed:
            node = self.machine.locate(ref.address)
            if node is None:
                raise DeliveryError(f"{ref!r} is not resident anywhere")
            return node
        for kernel in self.kernels:
            desc = kernel.table.get(ref.address)
            if desc is not None and desc.is_local:
                return kernel.node_id
        raise DeliveryError(f"{ref!r} is not resident anywhere")

    def actor_of(self, ref: ActorRef):
        """Ground-truth actor object behind a ref (white-box)."""
        if self._distributed:
            raise ReproError(
                "actor objects live in worker processes on the mp "
                "backend; only locations and counters cross back"
            )
        return self.kernels[self.locate(ref)].table.get(ref.address).actor

    def state_of(self, ref: ActorRef):
        """Ground-truth state object behind a ref (white-box)."""
        return self.actor_of(ref).state

    def actor_locations(self) -> Dict:
        """Ground-truth ``{mail address: node}`` map of every resident
        actor (white-box; backend-neutral — the parity tests compare
        this across backends)."""
        if self._distributed:
            return self.machine.actor_locations()
        out: Dict = {}
        for kernel in self.kernels:
            for desc in kernel.table:
                if desc.is_local and desc.actor is not None and desc.key is not None:
                    out[desc.key] = kernel.node_id
        return out

    def total_actors(self) -> int:
        if self._distributed:
            return self.machine.total_actors()
        return sum(k.local_actor_count() for k in self.kernels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HalRuntime(P={self.num_nodes}, t={self.now:.1f}us)"
