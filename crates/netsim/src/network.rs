//! Host registry, delay injection, and the transmit engine front-end.

use crate::engine::{Lane, LinkUsage, LocalClock, Scheduler, Slot, TransportMode};
use crate::fault::{FaultState, FrameFate};
use crate::idhash::{IdMap, IdSet};
use crate::publish::Published;
use crate::{FaultPlan, FaultStats, Link, LinkPreset, TimeScale, Verdict, VirtualClock};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Opaque identifier of a registered host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub(crate) u32);

impl HostId {
    /// Raw numeric id (stable for the lifetime of the [`Network`]).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuild a `HostId` from its raw value (used when object references
    /// cross the wire). Only meaningful within the network that issued it.
    pub fn from_raw(raw: u32) -> HostId {
        HostId(raw)
    }
}

/// A registered host: a named machine in the simulated testbed.
#[derive(Debug, Clone)]
pub struct Host {
    /// Identifier within the owning network.
    pub id: HostId,
    /// Human-readable name, e.g. `"HOST_1"`.
    pub name: String,
    /// Loopback link used for intra-host transfers.
    pub loopback: Link,
    /// Relative compute speed of one processor of this host (1.0 = baseline).
    /// Figure 2 depends on HOST 2 being the faster machine.
    pub speed: f64,
}

/// Immutable routing snapshot: hosts, links, and the per-pair transmit
/// state. Published through [`Published`], so the per-frame lookup in
/// [`Network::charge`] / [`Network::transmit`] acquires no lock — mutation
/// (host/link registration) builds a fresh snapshot and swaps it in.
struct Topology {
    hosts: Vec<Host>,
    by_name: HashMap<String, HostId>,
    links: IdMap<(HostId, HostId), Link>,
    default_link: Link,
    /// One wire-guard per unordered host pair, taken while a transfer over
    /// a shared-medium link sleeps in scaled real time. Precomputed here at
    /// registration, so taking it never touches the registry.
    media: IdMap<(HostId, HostId), Arc<Mutex<()>>>,
    /// Per-directed-pair engine lanes (loopback pairs included). Shared
    /// across snapshot generations so timeline state survives topology
    /// changes.
    lanes: IdMap<(HostId, HostId), Arc<Lane>>,
    /// The one shared-medium transmit timeline: every frame over a
    /// `shared` link serialises here regardless of host pair, modelling a
    /// single Ethernet segment (the paper's testbed has exactly one).
    /// Dedicated links keep their per-pair lanes.
    segment: Arc<Lane>,
    /// Per-host local virtual clocks for the engine's causality model,
    /// likewise shared across generations.
    locals: IdMap<HostId, Arc<LocalClock>>,
}

impl Topology {
    fn empty(default_link: Link) -> Topology {
        Topology {
            hosts: Vec::new(),
            by_name: HashMap::new(),
            links: IdMap::default(),
            default_link,
            media: IdMap::default(),
            lanes: IdMap::default(),
            segment: Arc::default(),
            locals: IdMap::default(),
        }
    }

    fn clone_shallow(&self) -> Topology {
        Topology {
            hosts: self.hosts.clone(),
            by_name: self.by_name.clone(),
            links: self.links.clone(),
            default_link: self.default_link,
            media: self.media.clone(),
            lanes: self.lanes.clone(),
            segment: self.segment.clone(),
            locals: self.locals.clone(),
        }
    }

    /// Ensure every host pair has its medium guard and engine lanes.
    fn refresh_pairs(&mut self) {
        for a in 0..self.hosts.len() as u32 {
            self.locals.entry(HostId(a)).or_default();
            for b in 0..self.hosts.len() as u32 {
                self.lanes.entry((HostId(a), HostId(b))).or_default();
                if a <= b {
                    self.media.entry((HostId(a), HostId(b))).or_default();
                }
            }
        }
    }

    fn link_between(&self, from: HostId, to: HostId) -> Link {
        if from == to {
            return self.hosts[from.0 as usize].loopback;
        }
        self.links.get(&(from, to)).copied().unwrap_or(self.default_link)
    }

    fn medium(&self, a: HostId, b: HostId) -> Arc<Mutex<()>> {
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.media[&key].clone()
    }

    fn lane(&self, from: HostId, to: HostId, link: &Link) -> &Arc<Lane> {
        if link.shared {
            &self.segment
        } else {
            &self.lanes[&(from, to)]
        }
    }
}

/// Fault-injection state, kept outside the topology so the hot lossless
/// path never takes a lock for it. Plans are `Arc`-shared: installing,
/// materialising a lane's schedule, and per-frame evaluation never clone a
/// plan.
#[derive(Default)]
struct Faults {
    /// Network-wide plan (inter-host links only; loopback is exempt).
    global: Option<Arc<FaultPlan>>,
    /// Per-link overrides (win over the global plan). `None` exempts the
    /// link explicitly.
    per_link: IdMap<(HostId, HostId), Option<Arc<FaultPlan>>>,
    /// Lazily materialised per-directed-link schedule state.
    states: IdMap<(HostId, HostId), FaultState>,
}

impl Faults {
    /// Decide the fate of the next frame on `(from, to)` at virtual time
    /// `now_s`. `None` means no plan governs the link (always delivered).
    fn fate(&mut self, from: HostId, to: HostId, now_s: f64) -> Option<FrameFate> {
        let plan = match self.per_link.get(&(from, to)) {
            Some(per_link) => per_link.clone(),
            None if from != to => self.global.clone(),
            None => None,
        }?;
        Some(
            self.states
                .entry((from, to))
                .or_insert_with(|| FaultState::new(plan))
                .verdict(from.0, to.0, now_s),
        )
    }
}

/// The simulated testbed: a set of hosts and the links joining them.
///
/// Cloning a `Network` is cheap and shares all state.
#[derive(Clone)]
pub struct Network {
    topo: Arc<Published<Topology>>,
    /// Serialises topology mutations (read-modify-publish).
    mutate: Arc<Mutex<()>>,
    mode: TransportMode,
    sched: Arc<Scheduler>,
    scale: TimeScale,
    clock: VirtualClock,
    /// Fast gate: false means no plan anywhere and [`Network::deliver`] is
    /// exactly [`Network::charge`] plus one relaxed load.
    faults_on: Arc<AtomicBool>,
    faults: Arc<Mutex<Faults>>,
    /// Fast gate for the host-down check, mirroring `faults_on`: false
    /// means no host is down and the hot path pays one relaxed load.
    hosts_down_on: Arc<AtomicBool>,
    /// Hosts currently taken off the network by [`Network::kill_host`].
    down_hosts: Arc<Mutex<IdSet<HostId>>>,
    dropped: Arc<AtomicU64>,
    duplicated: Arc<AtomicU64>,
    delivered: Arc<AtomicU64>,
    burst_dropped: Arc<AtomicU64>,
    down_dropped: Arc<AtomicU64>,
}

impl Default for Network {
    fn default() -> Self {
        Self::new(TimeScale::off())
    }
}

impl Network {
    /// Create an empty network with the given time scale for delay
    /// injection, on the event-driven overlapped engine.
    pub fn new(scale: TimeScale) -> Self {
        Self::with_transport(scale, TransportMode::Overlapped)
    }

    /// Create an empty network with an explicit transport mode
    /// ([`TransportMode::Sync`] for the paper's blocking accounting).
    pub fn with_transport(scale: TimeScale, mode: TransportMode) -> Self {
        Network {
            topo: Arc::new(Published::new(Topology::empty(LinkPreset::Ethernet10.link()))),
            mutate: Arc::new(Mutex::new(())),
            mode,
            sched: Arc::new(Scheduler::default()),
            scale,
            clock: VirtualClock::new(),
            faults_on: Arc::new(AtomicBool::new(false)),
            faults: Arc::new(Mutex::new(Faults::default())),
            hosts_down_on: Arc::new(AtomicBool::new(false)),
            down_hosts: Arc::new(Mutex::new(IdSet::default())),
            dropped: Arc::new(AtomicU64::new(0)),
            duplicated: Arc::new(AtomicU64::new(0)),
            delivered: Arc::new(AtomicU64::new(0)),
            burst_dropped: Arc::new(AtomicU64::new(0)),
            down_dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The paper's figure 2/4 testbed: `HOST_1` (4-node SGI Onyx, slower
    /// processors) and `HOST_2` (10-node SGI PowerChallenge, faster
    /// processors) joined by a dedicated ATM OC-3 link.
    pub fn paper_atm_testbed(scale: TimeScale) -> Self {
        Self::paper_atm_testbed_with(scale, TransportMode::Overlapped)
    }

    /// [`Network::paper_atm_testbed`] with an explicit transport mode.
    pub fn paper_atm_testbed_with(scale: TimeScale, mode: TransportMode) -> Self {
        let net = Network::with_transport(scale, mode);
        net.add_host_with_speed("HOST_1", 1.0);
        net.add_host_with_speed("HOST_2", 1.8);
        net.connect_by_name("HOST_1", "HOST_2", LinkPreset::AtmOc3.link());
        net
    }

    /// The paper's figure 5 testbed: the SGI PC (diffusion + its visualizer)
    /// and the IBM SP/2 (gradient), communicating over Ethernet; an SGI Indy
    /// workstation runs the gradient's visualizer.
    pub fn paper_ethernet_testbed(scale: TimeScale) -> Self {
        Self::paper_ethernet_testbed_with(scale, TransportMode::Overlapped)
    }

    /// [`Network::paper_ethernet_testbed`] with an explicit transport mode.
    pub fn paper_ethernet_testbed_with(scale: TimeScale, mode: TransportMode) -> Self {
        let net = Network::with_transport(scale, mode);
        net.add_host_with_speed("SGI_PC", 1.0);
        net.add_host_with_speed("SP2", 1.1);
        net.add_host_with_speed("INDY", 0.6);
        let eth = LinkPreset::Ethernet10.link();
        net.connect_by_name("SGI_PC", "SP2", eth);
        net.connect_by_name("SGI_PC", "INDY", eth);
        net.connect_by_name("SP2", "INDY", eth);
        net
    }

    /// How this network accounts and delivers frames.
    pub fn transport_mode(&self) -> TransportMode {
        self.mode
    }

    /// Register a host with baseline speed.
    pub fn add_host(&self, name: &str) -> HostId {
        self.add_host_with_speed(name, 1.0)
    }

    /// Register a host with a relative per-processor compute speed.
    ///
    /// # Panics
    /// Panics if a host of the same name already exists or speed is not
    /// strictly positive.
    pub fn add_host_with_speed(&self, name: &str, speed: f64) -> HostId {
        assert!(speed.is_finite() && speed > 0.0, "host speed must be positive");
        let _guard = self.mutate.lock();
        let cur = self.topo.read();
        assert!(!cur.by_name.contains_key(name), "host {name:?} already registered");
        let mut next = cur.clone_shallow();
        let id = HostId(next.hosts.len() as u32);
        next.hosts.push(Host {
            id,
            name: name.to_string(),
            loopback: LinkPreset::Loopback.link(),
            speed,
        });
        next.by_name.insert(name.to_string(), id);
        next.refresh_pairs();
        self.topo.store(next);
        id
    }

    /// Install a (bidirectional) link between two hosts.
    pub fn connect(&self, a: HostId, b: HostId, link: Link) {
        let _guard = self.mutate.lock();
        let mut next = self.topo.read().clone_shallow();
        next.links.insert((a, b), link);
        next.links.insert((b, a), link);
        next.refresh_pairs();
        self.topo.store(next);
    }

    /// Install a link looked up by host names.
    ///
    /// # Panics
    /// Panics if either host is unknown.
    pub fn connect_by_name(&self, a: &str, b: &str, link: Link) {
        let (a, b) = {
            let topo = self.topo.read();
            (
                *topo.by_name.get(a).unwrap_or_else(|| panic!("unknown host {a:?}")),
                *topo.by_name.get(b).unwrap_or_else(|| panic!("unknown host {b:?}")),
            )
        };
        self.connect(a, b, link);
    }

    /// Set the link used between host pairs that have no explicit link.
    pub fn set_default_link(&self, link: Link) {
        let _guard = self.mutate.lock();
        let mut next = self.topo.read().clone_shallow();
        next.default_link = link;
        self.topo.store(next);
    }

    /// Look a host up by name.
    pub fn host_by_name(&self, name: &str) -> Option<HostId> {
        self.topo.read().by_name.get(name).copied()
    }

    /// Host metadata.
    ///
    /// # Panics
    /// Panics on an id from a different network.
    pub fn host(&self, id: HostId) -> Host {
        self.topo.read().hosts[id.0 as usize].clone()
    }

    /// Number of registered hosts.
    pub fn host_count(&self) -> usize {
        self.topo.read().hosts.len()
    }

    /// The link that a message from `from` to `to` traverses.
    pub fn link_between(&self, from: HostId, to: HostId) -> Link {
        self.topo.read().link_between(from, to)
    }

    /// Modelled duration of moving `bytes` from `from` to `to`.
    pub fn transfer_time(&self, from: HostId, to: HostId, bytes: usize) -> Duration {
        self.link_between(from, to).transfer_time(bytes)
    }

    /// Charge a transfer in scaled real time: sleeps for the modelled
    /// duration times the network's [`TimeScale`], and also accumulates the
    /// full modelled duration on the virtual clock. On a shared-medium link
    /// (classic Ethernet) concurrent transfers over the same host pair
    /// serialise. Returns the modelled duration.
    ///
    /// This is the synchronous accounting path — the sender's thread pays
    /// everything. [`Network::transmit`] is the overlapped engine.
    pub fn charge(&self, from: HostId, to: HostId, bytes: usize) -> Duration {
        let topo = self.topo.read();
        let link = topo.link_between(from, to);
        let t = link.transfer_time(bytes);
        self.clock.advance(t);
        let injected = self.scale.apply(t);
        if !injected.is_zero() {
            let guard = link.shared.then(|| topo.medium(from, to));
            let _held = guard.as_ref().map(|m| m.lock());
            std::thread::sleep(injected);
        }
        t
    }

    /// Install (or clear) a network-wide fault plan. It governs every
    /// inter-host frame; loopback transfers are exempt. Installing a plan
    /// resets all per-link schedule state and the fault counters, so two
    /// runs installing the same plan see the same schedule.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        {
            let mut f = self.faults.lock();
            f.global = plan.map(Arc::new);
            f.states.clear();
            self.faults_on.store(
                f.global.is_some() || f.per_link.values().any(Option::is_some),
                Ordering::Release,
            );
        }
        self.reset_fault_stats();
    }

    /// Install (or clear) a fault plan on the (bidirectional) link between
    /// two hosts. A per-link entry overrides the network-wide plan —
    /// `Some(plan)` injects it, `None` exempts the link entirely.
    pub fn set_link_fault_plan(&self, a: HostId, b: HostId, plan: Option<FaultPlan>) {
        let plan = plan.map(Arc::new);
        let mut f = self.faults.lock();
        f.per_link.insert((a, b), plan.clone());
        f.per_link.insert((b, a), plan);
        f.states.remove(&(a, b));
        f.states.remove(&(b, a));
        self.faults_on.store(
            f.global.is_some() || f.per_link.values().any(Option::is_some),
            Ordering::Release,
        );
    }

    /// Take a host off the network: every subsequent frame to or from it
    /// (loopback included) is dropped and counted as `down_dropped`, until
    /// [`Network::revive_host`]. Works with or without a fault plan
    /// installed — a crashed replica needs no loss schedule — and never
    /// consumes the seeded drop/duplicate sequence, so the surviving links'
    /// chaos schedule replays identically whether or not a host was killed.
    pub fn kill_host(&self, host: HostId) {
        self.down_hosts.lock().insert(host);
        self.hosts_down_on.store(true, Ordering::Release);
    }

    /// Bring a killed host back: frames flow again (state the host held in
    /// higher layers is its own problem — the network forgets nothing).
    pub fn revive_host(&self, host: HostId) {
        let mut down = self.down_hosts.lock();
        down.remove(&host);
        self.hosts_down_on.store(!down.is_empty(), Ordering::Release);
    }

    /// Whether `host` is currently killed.
    pub fn host_is_down(&self, host: HostId) -> bool {
        self.hosts_down_on.load(Ordering::Acquire) && self.down_hosts.lock().contains(&host)
    }

    /// True when either end of the frame is a killed host.
    fn crosses_down_host(&self, from: HostId, to: HostId) -> bool {
        if !self.hosts_down_on.load(Ordering::Acquire) {
            return false;
        }
        let down = self.down_hosts.lock();
        down.contains(&from) || down.contains(&to)
    }

    /// Counters of fault-layer activity since the last plan install.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            burst_dropped: self.burst_dropped.load(Ordering::Relaxed),
            down_dropped: self.down_dropped.load(Ordering::Relaxed),
        }
    }

    /// Counters for one *directed* link since its plan was installed. Zero
    /// until a frame has been offered to that link under a plan.
    pub fn link_fault_stats(&self, from: HostId, to: HostId) -> FaultStats {
        self.faults.lock().states.get(&(from, to)).map(FaultState::stats).unwrap_or_default()
    }

    /// Per-directed-link counters for every link that has seen fault-layer
    /// traffic, sorted by `(from, to)` so the snapshot is deterministic.
    pub fn per_link_fault_stats(&self) -> Vec<((HostId, HostId), FaultStats)> {
        let f = self.faults.lock();
        let mut out: Vec<_> = f.states.iter().map(|(k, s)| (*k, s.stats())).collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Zero the fault counters, network-wide and per-link (schedule state is
    /// kept).
    pub fn reset_fault_stats(&self) {
        self.delivered.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
        self.duplicated.store(0, Ordering::Relaxed);
        self.burst_dropped.store(0, Ordering::Relaxed);
        self.down_dropped.store(0, Ordering::Relaxed);
        for state in self.faults.lock().states.values_mut() {
            state.reset_stats();
        }
    }

    fn account(&self, fate: FrameFate) {
        match fate {
            FrameFate::Delivered => self.delivered.fetch_add(1, Ordering::Relaxed),
            FrameFate::DroppedRandom => self.dropped.fetch_add(1, Ordering::Relaxed),
            FrameFate::DroppedBurst => {
                self.burst_dropped.fetch_add(1, Ordering::Relaxed);
                self.dropped.fetch_add(1, Ordering::Relaxed)
            }
            FrameFate::DroppedDown => {
                self.down_dropped.fetch_add(1, Ordering::Relaxed);
                self.dropped.fetch_add(1, Ordering::Relaxed)
            }
            FrameFate::Duplicated => self.duplicated.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Charge a transfer and decide its fate under the installed fault
    /// plans. With no plan installed this is [`Network::charge`] plus one
    /// atomic load — the lossless behaviour (costs, clock, verdicts) is
    /// bit-identical to the fault-free simulator.
    ///
    /// A [`Verdict::Dropped`] frame still pays its transfer cost (it went
    /// onto the wire and died there); a [`Verdict::Duplicated`] frame pays
    /// twice, once per copy.
    pub fn deliver(&self, from: HostId, to: HostId, bytes: usize) -> Verdict {
        self.charge(from, to, bytes);
        // A killed host eats the frame before any plan is consulted (and
        // without consuming the plan's seeded sequence) — the frame paid its
        // wire cost and died at the dead interface.
        if self.crosses_down_host(from, to) {
            self.account(FrameFate::DroppedDown);
            if pardis_obs::enabled() {
                self.trace_transit_sync(from, to, bytes, FrameFate::DroppedDown.label());
            }
            return Verdict::Dropped;
        }
        if !self.faults_on.load(Ordering::Acquire) {
            if pardis_obs::enabled() {
                self.trace_transit_sync(from, to, bytes, "delivered");
            }
            return Verdict::Delivered;
        }
        let fate =
            self.faults.lock().fate(from, to, self.clock.now()).unwrap_or(FrameFate::Delivered);
        self.account(fate);
        if pardis_obs::enabled() {
            // Traced before the duplicate's extra charge so the timing
            // describes the original copy.
            self.trace_transit_sync(from, to, bytes, fate.label());
        }
        if fate == FrameFate::Duplicated {
            // The duplicate copy also traverses the wire.
            self.charge(from, to, bytes);
        }
        fate.verdict()
    }

    /// Send a frame through the event-driven transmit engine: the caller
    /// pays only the link's software overhead `t_o` (in scaled real time);
    /// wire latency and serialization are accounted on the per-directed-link
    /// lane (overlapping on dedicated links, queue-ordered on shared media),
    /// and `release` runs once per arriving copy — inline when no real time
    /// is injected, from the engine's timer thread otherwise, in
    /// `(arrival, seq)` order.
    ///
    /// The fault verdict is drawn from the same seeded per-link schedule as
    /// [`Network::deliver`], at enqueue time, so chaos runs replay
    /// identically in either transport mode. A dropped frame still occupies
    /// the wire; a duplicated frame occupies it twice and `release` runs
    /// twice. The virtual clock advances to the frame's arrival (makespan
    /// semantics).
    ///
    /// In [`TransportMode::Sync`] this degrades to [`Network::deliver`] plus
    /// inline `release` calls — the legacy synchronous accounting,
    /// bit-for-bit.
    pub fn transmit(
        &self,
        from: HostId,
        to: HostId,
        bytes: usize,
        release: impl Fn() + Send + Sync + 'static,
    ) -> Verdict {
        if self.mode == TransportMode::Sync {
            let verdict = self.deliver(from, to, bytes);
            match verdict {
                Verdict::Delivered => release(),
                Verdict::Duplicated => {
                    release();
                    release();
                }
                Verdict::Dropped => {}
            }
            return verdict;
        }

        let topo = self.topo.read();
        let link = topo.link_between(from, to);
        let lane = topo.lane(from, to, &link);
        // The sender's local time floors the departure (a reply cannot leave
        // before its request arrived) and advances by `t_o` — the sender-side
        // share of the transfer.
        let base = topo.locals[&from].begin_send(link.overhead_s);
        let slot = lane.reserve(&link, bytes, base);
        topo.locals[&to].observe(slot.arrival);
        self.clock.advance_to(slot.arrival);

        // Enqueue-time verdict: down windows are judged at the frame's
        // modelled arrival; drop/duplicate come from the per-lane seeded
        // sequence — identical to the synchronous schedule. A killed host
        // pre-empts both, plan or no plan.
        let fate = if self.crosses_down_host(from, to) {
            self.account(FrameFate::DroppedDown);
            FrameFate::DroppedDown
        } else if self.faults_on.load(Ordering::Acquire) {
            let fate =
                self.faults.lock().fate(from, to, slot.arrival).unwrap_or(FrameFate::Delivered);
            self.account(fate);
            fate
        } else {
            FrameFate::Delivered
        };
        let dup_slot = (fate == FrameFate::Duplicated).then(|| {
            // The spurious copy rides the wire right behind the original.
            let s = lane.reserve(&link, bytes, base);
            topo.locals[&to].observe(s.arrival);
            self.clock.advance_to(s.arrival);
            s
        });
        if pardis_obs::enabled() {
            let depart = slot.arrival - slot.t;
            self.trace_transit(
                from,
                to,
                bytes,
                fate.label(),
                depart,
                slot.arrival,
                depart - base,
                link.overhead_s.min(slot.t),
            );
        }

        // The sender's synchronous share: the software overhead only.
        let overhead = self.scale.apply(Duration::from_secs_f64(link.overhead_s));
        if !overhead.is_zero() {
            std::thread::sleep(overhead);
        }
        match (fate, dup_slot) {
            (FrameFate::Delivered, _) => self.dispatch(lane, &link, slot, release),
            (FrameFate::Duplicated, Some(dup_slot)) => {
                let release = Arc::new(release);
                let copy = release.clone();
                self.dispatch(lane, &link, slot, move || copy());
                self.dispatch(lane, &link, dup_slot, move || release());
            }
            _ => {}
        }
        fate.verdict()
    }

    /// Hand one arriving copy to its release hook: inline under pure
    /// virtual accounting, through the timer thread when real time is
    /// injected (the wire share of the transfer, `t - t_o`, elapses off the
    /// sender's thread — that is the overlap). Only a hook that waits for
    /// the timer is boxed.
    fn dispatch(
        &self,
        lane: &Lane,
        link: &Link,
        slot: Slot,
        release: impl Fn() + Send + Sync + 'static,
    ) {
        let wire = self.scale.apply(Duration::from_secs_f64((slot.t - link.overhead_s).max(0.0)));
        if wire.is_zero() {
            release();
        } else {
            self.sched.enqueue(lane, Instant::now() + wire, slot.arrival, Arc::new(release));
        }
    }

    /// Block until every frame the engine scheduled for timed release has
    /// been handed over (no-op under pure virtual accounting or in
    /// [`TransportMode::Sync`]).
    pub fn quiesce(&self) {
        self.sched.quiesce();
    }

    /// Charge local (non-network) time on one host's virtual timeline —
    /// waiting or computing that delays its next send. The reliability
    /// layer charges its retransmission backoff here so retries walk the
    /// virtual clock out of a timed link-down window under the engine, the
    /// same way the synchronous transport's sum-clock does implicitly.
    /// No-op in [`TransportMode::Sync`].
    pub fn charge_wait(&self, host: HostId, d: Duration) {
        if self.mode == TransportMode::Sync {
            return;
        }
        let local_now = self.topo.read().locals[&host].advance(d.as_secs_f64());
        // Fold the host's new floor into the global reading eagerly. The
        // engine would do the same fold lazily at the host's next send; doing
        // it here makes the charge visible to virtual-clock observers (trace
        // timestamps, the backoff instant's measured wait) right away.
        self.clock.advance_to(local_now);
    }

    /// Per-directed-link engine usage (frames, bytes, busy time, timeline
    /// end) for every dedicated lane that carried traffic, sorted by
    /// `(from, to)`. Shared-medium traffic is reported by
    /// [`Network::shared_segment_usage`]. Only the overlapped engine feeds
    /// these.
    pub fn per_link_usage(&self) -> Vec<((HostId, HostId), LinkUsage)> {
        let topo = self.topo.read();
        let mut out: Vec<_> = topo
            .lanes
            .iter()
            .map(|(k, lane)| (*k, lane.usage()))
            .filter(|(_, u)| u.frames > 0)
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Engine usage of the one shared-medium segment (every `shared` link's
    /// frames serialise here, whatever their host pair), if it carried any
    /// traffic.
    pub fn shared_segment_usage(&self) -> Option<LinkUsage> {
        let usage = self.topo.read().segment.usage();
        (usage.frames > 0).then_some(usage)
    }

    /// The network makespan in modelled seconds: under the overlapped
    /// engine the virtual clock tracks the latest arrival on any link
    /// timeline (under [`TransportMode::Sync`] it is the sum of transfers,
    /// as ever).
    pub fn makespan(&self) -> f64 {
        self.clock.now()
    }

    /// Record a `net.transit` trace instant (tracing already known enabled)
    /// with the transfer's timing decomposition on the lane timeline, all in
    /// modelled seconds: `depart_s` (the frame starts occupying the wire),
    /// `arrive_s` (last byte lands), `queue_s` (lane wait before departure)
    /// and `t_o_s` (the link's software-overhead share of the transfer). The
    /// profiler attributes `[depart, depart+t_o]` to `t_o`,
    /// `[depart+t_o, arrive]` to wire time and `[depart-queue, depart]` to
    /// queueing. The sender's ambient trace context (if any) is auto-stamped,
    /// tying the transit to the originating invocation.
    #[allow(clippy::too_many_arguments)]
    fn trace_transit(
        &self,
        from: HostId,
        to: HostId,
        bytes: usize,
        fate: &'static str,
        depart_s: f64,
        arrive_s: f64,
        queue_s: f64,
        t_o_s: f64,
    ) {
        // Sub-nanosecond readings (a near-infinite-bandwidth free link's
        // transfer time) are modelling noise: snap them to zero rather than
        // exporting denormal-length decimals.
        let us = |s: f64| {
            let v = s.max(0.0) * 1e6;
            if v < 1e-3 {
                0.0
            } else {
                v
            }
        };
        pardis_obs::instant(
            "net",
            "net.transit",
            None,
            vec![
                ("from", pardis_obs::ArgVal::U64(from.0 as u64)),
                ("to", pardis_obs::ArgVal::U64(to.0 as u64)),
                ("bytes", pardis_obs::ArgVal::U64(bytes as u64)),
                ("fate", pardis_obs::ArgVal::Str(fate.into())),
                ("depart_us", pardis_obs::ArgVal::F64(us(depart_s))),
                ("arrive_us", pardis_obs::ArgVal::F64(us(arrive_s))),
                ("queue_us", pardis_obs::ArgVal::F64(us(queue_s))),
                ("t_o_us", pardis_obs::ArgVal::F64(us(t_o_s))),
                ("wire_us", pardis_obs::ArgVal::F64(us(arrive_s - depart_s - t_o_s))),
            ],
        );
    }

    /// Sync-path variant of [`Network::trace_transit`]: the sender's thread
    /// just paid the whole transfer `t_s` ending at the clock's current
    /// reading, so departure is reconstructed backwards and lane queueing is
    /// zero (the shared-medium wait is real time, not modelled time).
    fn trace_transit_sync(&self, from: HostId, to: HostId, bytes: usize, fate: &'static str) {
        let t_s = self.transfer_time(from, to, bytes).as_secs_f64();
        let arrive = self.clock.now();
        let t_o = self.link_between(from, to).overhead_s.min(t_s);
        self.trace_transit(from, to, bytes, fate, arrive - t_s, arrive, 0.0, t_o);
    }

    /// Charge a transfer in virtual time only (no sleeping).
    pub fn charge_virtual(&self, from: HostId, to: HostId, bytes: usize) -> Duration {
        let t = self.transfer_time(from, to, bytes);
        self.clock.advance(t);
        t
    }

    /// The network-wide virtual clock (sum of transfers under
    /// [`TransportMode::Sync`], makespan under the engine).
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The time scale used for real-time injection.
    pub fn time_scale(&self) -> &TimeScale {
        &self.scale
    }

    /// Relative compute speed of a host's processors.
    pub fn host_speed(&self, id: HostId) -> f64 {
        self.topo.read().hosts[id.0 as usize].speed
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let topo = self.topo.read();
        f.debug_struct("Network")
            .field("hosts", &topo.hosts.iter().map(|h| h.name.clone()).collect::<Vec<_>>())
            .field("links", &topo.links.len())
            .field("mode", &self.mode)
            .finish()
    }
}
