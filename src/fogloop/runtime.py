"""Executable runs: wires devices, loop components, and control modes onto
the simulator and drives a scenario to its horizon.

Every interaction crosses the network as a message: devices push samples to
their loop's monitor, components forward work along the MAPE pipeline, the
centralized master aggregates forwarded state and delegates sub-plans, and
decentralized peers coordinate through leader-run rounds. Physics advances
lazily: an office integrates up to the current instant whenever something
reads or changes it, so energy accounting is exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from fogloop.coordination import (
    DecentralizedControl,
    ForwardingFilter,
    InteractionKind,
    aggregate,
    decide_round,
    delegate,
)
from fogloop.errors import ConfigError
from fogloop.mape import (
    AdaptationPlan,
    Executor,
    KnowledgeBase,
    Monitor,
    Observation,
    PlannedAction,
    Planner,
    PolicyIndex,
    StaleObservationError,
    Symptom,
    analyze,
)
from fogloop.model import ValueType
from fogloop.placement import COMPONENTS, LoopSpec, Placement, place
from fogloop.scenario import Scenario, validate_scenario
from fogloop.simnet import Channel, EventTrace, Simulator, SinkFactory, TraceSink
from fogloop.smartbuilding import (
    ENVIRONMENT_SERVICE,
    READINGS,
    Device,
    DeviceSetup,
    Environment,
    EnvironmentEvent,
    OfficeState,
    instantiate_office,
)

SENSE = InteractionKind.MANAGER_TO_ELEMENT_SENSE.value
ACTUATE = InteractionKind.MANAGER_TO_ELEMENT_ACTUATE.value
PIPELINE = InteractionKind.INTER_COMPONENT.value
DELEGATION = InteractionKind.INTRA_DELEGATION.value
COORDINATION = InteractionKind.INTRA_COORDINATION.value


class DeviceActor:
    """Hosts one device on its node: periodic sampling plus actuation."""

    def __init__(self, runtime: Runtime, setup: DeviceSetup, device: Device,
                 office: OfficeState | None, owner: LoopActor | None):
        self.runtime = runtime
        self.device = device
        self.office = office
        self.addr = f"{setup.node}/{device.service}"
        # Every loop has registered its monitor by now.
        self.to_monitor: Channel | None = (
            None if owner is None else runtime.sim.channel(self.addr, owner.addr["monitor"])
        )
        self.monitor = Monitor()
        for name in setup.samples:
            self.monitor.register_touchpoint(device.service, name, device.reader(name))
        # (reading, interval) in the kind's order, not the file's, which the
        # config digest does not see.
        self.samples = tuple((name, setup.samples[name]) for name in READINGS[device.kind]
                             if name in setup.samples)
        # One sampling callback per stream, which reschedules itself.
        self.ticks = tuple(partial(self._tick, i) for i in range(len(self.samples)))
        runtime.sim.register(self.addr, self.on_message)

    def announce(self) -> None:
        self.runtime.sim.emit(
            "init",
            self.addr,
            service=self.device.service,
            kind=self.device.kind.value,
            office=None if self.office is None else self.office.id,
            state=dict(self.device.state),
            power_w=self.device.power_w,
        )

    def start_sampling(self) -> None:
        if self.to_monitor is None:
            return
        for tick in self.ticks:
            self.runtime.sim.schedule(0, tick)

    def _tick(self, i: int) -> None:
        sim, (name, interval) = self.runtime.sim, self.samples[i]
        now = sim.now
        if self.office is not None:
            self.office.sync(now)
        obs = self.monitor.sample(self.device.service, name, now)
        sim.send(SENSE, self.to_monitor, obs)
        sim.schedule(now + interval, self.ticks[i])

    def on_message(self, kind: str, pay: dict) -> None:
        sim = self.runtime.sim
        if self.office is not None:
            self.office.sync(sim.now)
        action: PlannedAction = pay["action"]
        changed = self.device.apply(action.command, action.argument, sim.now)
        sim.emit(
            "actuate-applied",
            pay["src"],
            self.addr,
            service=self.device.service,
            command=action.command,
            arg=action.argument,
            plan=pay["plan"],
            idx=pay["idx"],
            policy=pay["policy"],
            loop=pay["loop"],
            base_ts=pay["base_ts"],
            latency=sim.now - pay["base_ts"],
            changed=[obs.parameter for obs in changed],
        )
        if self.to_monitor is not None:
            for obs in changed:
                sim.send(SENSE, self.to_monitor, obs)


@dataclass
class PeerRounds:
    """A group loop's side of the rounds of one coordinated component.

    Every member keeps its channels to the members (itself included) and
    the items that wait for a round. The leader also runs the rounds, one
    at a time: it decides once every member has proposed and closes once
    every member has acknowledged.
    """

    to_members: dict[str, Channel]
    to_leader: Channel
    pending: deque = field(default_factory=deque)
    # Leader only: rounds opened so far, and the id of the open one.
    seq: int = 0
    open: str | None = None
    proposals: dict[str, Any] = field(default_factory=dict)
    acks: int = 0
    requested: bool = False


class LoopActor:
    """One MAPE-K loop: five addressed components sharing a knowledge base.

    Placement follows the offering, so analyze and knowledge always share
    a node; every other hand-off is sent as a message. A loop in a
    decentralized group holds `PeerRounds` for each component it
    coordinates.
    """

    def __init__(self, runtime: Runtime, spec: LoopSpec):
        self.runtime = runtime
        self.spec = spec
        self.kb = KnowledgeBase()
        self.index = PolicyIndex(spec.policies)
        self.last_raised: dict[str, int] = {}
        self.planner = Planner(prefix=spec.id)
        self.executor = Executor(self._transport)
        node_of = runtime.placement.node_of
        self.addr = {comp: f"{node_of(spec.id, comp)}/{spec.id}.{comp}" for comp in COMPONENTS}
        self.is_master = runtime.master_id == spec.id
        sim = runtime.sim
        sim.register(self.addr["monitor"], self._on_monitor)
        sim.register(self.addr["analyze"], self._on_analyze)
        sim.register(self.addr["plan"], self._on_plan)
        sim.register(self.addr["execute"], self._on_execute)
        if self.is_master:
            sim.register(self.addr["knowledge"], self._on_knowledge)

        self.forward_filter = ForwardingFilter()
        # A slave forwards the aggregation inputs on the services it owns.
        aggs = runtime.control.aggregations if runtime.master_id is not None else ()
        self.forward_keys = {(svc, parameter) for agg in aggs for svc, parameter in agg.inputs
                             if not self.is_master and runtime.owners.get(svc) == spec.id}

    def connect(self) -> None:
        """Build every channel the loop sends on. Channels take their
        handlers from the simulator, so this runs once every actor has
        registered."""
        runtime = self.runtime
        channel = runtime.sim.channel
        addr = self.addr
        self.to_analyze = channel(addr["monitor"], addr["analyze"])
        self.to_plan = channel(addr["analyze"], addr["plan"])
        self.to_execute = channel(addr["plan"], addr["execute"])
        if self.forward_keys:
            master = runtime.loops[runtime.master_id]
            self.to_master = channel(addr["monitor"], master.addr["knowledge"])
        owners = runtime.owners
        targets = [action.service for policy in self.spec.policies for action in policy.then]
        if self.is_master:
            # Master plans are split among the slaves that own their targets.
            self.to_slaves = {}
            for service in targets:
                owner = owners.get(service, self.spec.id)
                if owner == self.spec.id:
                    raise ConfigError(
                        f"no slave owns '{service}' for actions from '{addr['execute']}'"
                    )
                self.to_slaves[owner] = channel(addr["execute"],
                                                runtime.loops[owner].addr["execute"])
        else:
            # The loop executes its own plans, sub-plans delegated to it and
            # decided round items: any action of its own policies, and any
            # action on a service it owns.
            targets += [action.service for loop in runtime.scenario.loops
                        for policy in loop.policies for action in policy.then
                        if owners.get(action.service) == self.spec.id]
            self.to_devices = {}
            for service in dict.fromkeys(targets):
                device = runtime.devices.get(service)
                if device is None:
                    raise ConfigError(
                        f"no device at '{service}' for actions from '{addr['execute']}'"
                    )
                self.to_devices[service] = channel(addr["execute"], device.addr)
        self.rounds: dict[str, PeerRounds] = {}
        if self.spec.id in runtime.group:
            for component in runtime.control.coordinate:
                to_members = {
                    member: channel(addr[component], runtime.loops[member].addr[component])
                    for member in runtime.group
                }
                self.rounds[component] = PeerRounds(to_members,
                                                    to_members[runtime.group[0]])

    # --- monitor ---------------------------------------------------------

    def _on_monitor(self, kind: str, obs: Observation) -> None:
        sim = self.runtime.sim
        sim.send(PIPELINE, self.to_analyze, obs)
        if self.forward_keys and (obs.service, obs.parameter) in self.forward_keys \
                and self.forward_filter.offer(obs):
            sim.send(PIPELINE, self.to_master, obs)

    # --- analyze + knowledge ----------------------------------------------

    def put(self, obs: Observation) -> bool:
        """The loop's one way into its knowledge base."""
        key = (obs.service, obs.parameter)
        before = self.kb.latest.get(key)
        try:
            self.kb.put(obs)
        except StaleObservationError:
            self.runtime.sim.emit(
                "stale-drop",
                self.addr["knowledge"],
                loop=self.spec.id,
                service=obs.service,
                parameter=obs.parameter,
                t_obs=obs.timestamp,
                t_latest=before.timestamp,
            )
            return False
        self.index.put(key, before, obs.value)
        return True

    def _on_analyze(self, kind: str, payload: Any) -> None:
        if kind == COORDINATION:
            self._on_round("analyze", payload)
            return
        if self.put(payload):
            self._analyze_now()

    def _analyze_now(self) -> None:
        sim = self.runtime.sim
        live = self.index.due(sim.now)
        if not live:
            return
        blocked: list = []
        symptoms = analyze(self.kb, live, sim.now, self.last_raised, blocked)
        if blocked:
            self.index.sleep(blocked)
        for symptom in symptoms:
            self.last_raised[symptom.policy] = sim.now
            sim.emit(
                "symptom",
                self.addr["analyze"],
                loop=self.spec.id,
                policy=symptom.policy,
                base_ts=symptom.base_ts,
            )
            if "analyze" in self.rounds:
                self._queue("analyze", symptom)
            else:
                sim.send(PIPELINE, self.to_plan, symptom)

    def _on_knowledge(self, kind: str, obs: Observation) -> None:
        if not self.put(obs):
            return
        sim = self.runtime.sim
        touched = False
        key = (obs.service, obs.parameter)
        for spec in self.runtime.control.aggregations:
            if key not in spec.inputs:
                continue
            combined = aggregate(spec, self.kb.latest, sim.now, service=self.spec.id)
            if combined is None:
                continue
            self.put(combined)
            touched = True
            sim.emit(
                "aggregate",
                self.addr["knowledge"],
                loop=self.spec.id,
                name=spec.name,
                parameter=spec.output,
                value=combined.value,
            )
        if touched:
            # Knowledge and analyze share a node; re-analysis is a local call.
            self._analyze_now()

    # --- plan -------------------------------------------------------------

    def _on_plan(self, kind: str, symptom: Symptom) -> None:
        sim = self.runtime.sim
        plan = self.planner.plan(symptom, self.spec.policies)
        sim.emit(
            "plan",
            self.addr["plan"],
            loop=self.spec.id,
            plan=plan.plan_id,
            policy=plan.symptom.policy,
            base_ts=plan.symptom.base_ts,
            actions=len(plan.actions),
        )
        sim.send(PIPELINE, self.to_execute, plan)

    # --- execute ----------------------------------------------------------

    def _on_execute(self, kind: str, payload: Any) -> None:
        if kind == COORDINATION:
            self._on_round("execute", payload)
            return
        plan: AdaptationPlan = payload
        if kind == DELEGATION:
            self.executor.execute(plan)
            return
        if self.is_master:
            self._delegate(plan)
        elif "execute" in self.rounds:
            self._queue("execute", plan)
        else:
            self.executor.execute(plan)

    def _delegate(self, plan: AdaptationPlan) -> None:
        sim = self.runtime.sim
        for loop_id, sub in delegate(plan, self.runtime.owners).items():
            sim.emit(
                "delegate",
                self.addr["execute"],
                plan=plan.plan_id,
                to=loop_id,
                sub_plan=sub.plan_id,
                actions=len(sub.actions),
            )
            sim.send(DELEGATION, self.to_slaves[loop_id], sub)

    def _transport(self, plan: AdaptationPlan, idx: int, action: PlannedAction) -> None:
        sim = self.runtime.sim
        detail = {
            "loop": self.spec.id,
            "plan": plan.plan_id,
            "idx": idx,
            "service": action.service,
            "command": action.command,
            "arg": action.argument,
        }
        if plan.round is not None:
            detail["round"] = plan.round
        sim.emit("dispatch", self.addr["execute"], **detail)
        channel = self.to_devices[action.service]
        payload = {
            "action": action,
            "plan": plan.plan_id,
            "idx": idx,
            "policy": plan.symptom.policy,
            "loop": self.spec.id,
            "base_ts": plan.symptom.base_ts,
            # The source of the device's `actuate-applied` row.
            "src": channel.src,
        }
        sim.send(ACTUATE, channel, payload)

    # --- peer coordination --------------------------------------------------

    def _queue(self, component: str, item: Any) -> None:
        state = self.rounds[component]
        state.pending.append(item)
        self.runtime.sim.send(COORDINATION, state.to_leader, {"type": "request"})

    def _on_round(self, component: str, pay: dict) -> None:
        sim = self.runtime.sim
        state = self.rounds[component]
        kind = pay["type"]
        if kind == "request":
            if state.open is None:
                self._open_round(component, state)
            else:
                state.requested = True
        elif kind == "call":
            item = state.pending[0] if state.pending else None
            sim.send(COORDINATION, state.to_leader,
                     {"type": "propose", "round": pay["round"],
                      "from": self.spec.id, "item": item})
        elif kind == "propose":
            state.proposals[pay["from"]] = pay["item"]
            if len(state.proposals) == len(state.to_members):
                self._decide(component, state)
        elif kind == "decide":
            self._on_decide(component, state, pay)
        elif kind == "ack":
            state.acks += 1
            if state.acks < len(state.to_members):
                return
            sim.emit("round-close", self.addr[component], round=state.open,
                     component=component)
            state.open = None
            if state.requested:
                state.requested = False
                self._open_round(component, state)

    def _open_round(self, component: str, state: PeerRounds) -> None:
        sim = self.runtime.sim
        state.seq += 1
        state.open = f"{self.spec.id}.{component}-r{state.seq}"
        state.proposals, state.acks = {}, 0
        sim.emit(
            "round-open",
            self.addr[component],
            round=state.open,
            component=component,
            leader=self.spec.id,
        )
        for to_member in state.to_members.values():
            sim.send(COORDINATION, to_member, {"type": "call", "round": state.open})

    def _decide(self, component: str, state: PeerRounds) -> None:
        sim = self.runtime.sim
        winner, item = decide_round(state.proposals)
        sim.emit(
            "round-decide",
            self.addr[component],
            round=state.open,
            component=component,
            winner=winner,
        )
        for to_member in state.to_members.values():
            sim.send(COORDINATION, to_member,
                     {"type": "decide", "round": state.open, "by": winner, "item": item})

    def _on_decide(self, component: str, state: PeerRounds, pay: dict) -> None:
        sim = self.runtime.sim
        mine = pay["by"] == self.spec.id
        if mine and state.pending:
            state.pending.popleft()
        item = pay["item"]
        if item is not None:
            if component == "analyze":
                if mine:
                    sim.send(PIPELINE, self.to_plan, item)
            else:
                owners = self.runtime.owners
                owned = tuple(a for a in item.actions if owners.get(a.service) == self.spec.id)
                if owned:
                    sub = AdaptationPlan(f"{item.plan_id}@{self.spec.id}", item.symptom,
                                         owned, round=pay["round"])
                    self.executor.execute(sub)
        sim.send(COORDINATION, state.to_leader, {"type": "ack", "round": pay["round"]})
        if state.pending:
            sim.send(COORDINATION, state.to_leader, {"type": "request"})


class Runtime:
    """A fully wired scenario, ready to run.

    With `check`, the scenario must pass `validate_scenario` first. That is
    the one place value types are checked: samples, aggregation outputs and
    environment values then reach knowledge bases unchecked. A `check=False`
    runtime trusts its caller to have validated the scenario, as the CLI
    does before each of its runs.

    The build resolves every channel the run can send on. A pair with no
    route, no handler or no device to act on, and a master action on a
    service no slave owns, is a `ConfigError` from the build, checked or
    not, raised before the first row.
    """

    def __init__(self, scenario: Scenario, seed: int, check: bool = True,
                 sink: SinkFactory = EventTrace):
        if check:
            report = validate_scenario(scenario)
            if not report.ok:
                raise ConfigError(
                    "scenario is invalid:\n" + "\n".join(report.lines())
                )
        self.scenario = scenario
        self.placement: Placement = place(scenario.loops, scenario.topology)
        self.sim = Simulator(scenario.topology, seed, config_digest=scenario.digest,
                             sink=sink)
        self.env = Environment()

        control = scenario.control
        self.control = control
        self.master_id = scenario.master_id
        # The lowest id leads every round.
        self.group = (tuple(sorted(control.group))
                      if isinstance(control, DecentralizedControl) else ())

        self.owners = scenario.owners
        self.loops: dict[str, LoopActor] = {
            spec.id: LoopActor(self, spec) for spec in scenario.loops
        }

        by_office: dict[str, list] = {}
        for setup in scenario.devices:
            if setup.office is not None:
                by_office.setdefault(setup.office, []).append(setup)
        self.offices: dict[str, OfficeState] = {
            office_id: instantiate_office(office_id, setups, scenario.defaults, self.env)
            for office_id, setups in by_office.items()
        }
        # Each office syncs itself; `physics` names the same map, which the
        # C3-P3 acceptance probe syncs through.
        self.physics = self.offices

        self.devices: dict[str, DeviceActor] = {}
        for setup in scenario.devices:
            if setup.office is not None:
                office = self.offices[setup.office]
                device = office.devices[setup.service]
            else:
                office = None
                device = Device(setup.service, setup.kind, initial=setup.initial)
            owner = self.loops.get(self.owners.get(setup.service))
            actor = DeviceActor(self, setup, device, office, owner)
            self.devices[setup.service] = actor
        # Every handler is registered: resolve the loops' channels, before
        # the first row.
        for loop in self.loops.values():
            loop.connect()

        defaults = scenario.defaults
        self._apply_env(EnvironmentEvent(0, defaults.weather, defaults.outside_temp_c))
        for actor in self.devices.values():
            actor.announce()
        for actor in self.devices.values():
            actor.start_sampling()

        for event in scenario.environment_events:
            self.sim.schedule(event.t, partial(self._apply_env, event))

    def _apply_env(self, event: EnvironmentEvent) -> None:
        """Ambient context skips the network: every knowledge base learns
        environment values the instant they change. The values wait there for
        the loop's next observation to be analyzed."""
        now = self.sim.now
        for office in self.offices.values():
            office.sync(now)
        observed: list[Observation] = []
        detail: dict[str, Any] = {}
        if event.weather is not None:
            detail["weather"] = event.weather
            observed.append(Observation(ENVIRONMENT_SERVICE, "weather", event.weather, now))
        if event.outside_temp_c is not None:
            self.env.outside_temp_c = event.outside_temp_c
            detail["outside_temp_c"] = event.outside_temp_c
            observed.append(Observation(ENVIRONMENT_SERVICE, "outside-temp",
                                        event.outside_temp_c, now))
        self.sim.emit("env", **detail)
        for actor in self.loops.values():
            for obs in observed:
                actor.put(obs)

    def finalize(self, horizon: int) -> None:
        for office in self.offices.values():
            office.sync(horizon)


@dataclass
class RunResult:
    scenario: Scenario
    seed: int
    horizon: int
    trace: TraceSink
    offices: dict[str, OfficeState]
    devices: dict[str, Device]
    placement: Placement


def run_scenario(scenario: Scenario, seed: int, horizon: int, check: bool = True,
                 sink: SinkFactory = EventTrace) -> RunResult:
    """Run `scenario` to `horizon`. As for `Runtime`, types are validated
    once, up front, and `check=False` trusts the caller to have done so."""
    runtime = Runtime(scenario, seed, check=check, sink=sink)
    runtime.sim.run_until(horizon)
    runtime.finalize(horizon)
    return RunResult(
        scenario=scenario,
        seed=seed,
        horizon=horizon,
        trace=runtime.sim.trace,
        offices=runtime.offices,
        devices={name: actor.device for name, actor in runtime.devices.items()},
        placement=runtime.placement,
    )


def discrete_snapshot(result: RunResult) -> dict[str, dict[str, Any]]:
    """Comparable end state: every discrete device reading, no continuous
    (real-valued) ones."""
    snapshot: dict[str, dict[str, Any]] = {}
    for name in sorted(result.devices):
        device = result.devices[name]
        snapshot[name] = {key: device.read(key) for key, vtype in READINGS[device.kind].items()
                          if vtype is not ValueType.REAL}
    return snapshot
