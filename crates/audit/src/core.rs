//! The audit engine: lock-order graph, vector-clock happens-before
//! checker, and hazard detectors.
//!
//! All state lives behind one plain `std::sync::Mutex` (never an audited
//! wrapper — the auditor does not audit itself). Every hook is a single
//! short critical section; the gate in `lib.rs` keeps all of this off the
//! path entirely when auditing is disabled.

use crate::report::{AuditReport, Finding, Kind, Severity};
use crate::Site;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// A vector clock: logical time per audited thread, indexed by thread id.
type Vc = Vec<u32>;

fn vc_join(into: &mut Vc, other: &Vc) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(other.iter()) {
        *a = (*a).max(*b);
    }
}

/// Does epoch `(tid, clk)` happen-before the thread whose clock is `vc`?
fn epoch_hb(tid: usize, clk: u32, vc: &Vc) -> bool {
    vc.get(tid).copied().unwrap_or(0) >= clk
}

/// How a lock site was acquired — reads may share, writes exclude. Only
/// the re-entrancy diagnosis differs; the order graph is conservative and
/// tracks both identically (writer-priority interactions can deadlock
/// read cycles too).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Acq {
    /// Exclusive acquisition (mutex lock, rwlock write).
    Write,
    /// Shared acquisition (rwlock read).
    Read,
}

/// One lock currently held by some thread.
struct Held {
    /// Address of the static [`Site`] — the stable site id.
    site: usize,
    /// Address of the lock instance (re-entrancy is per-instance).
    instance: usize,
    /// Virtual-clock micros at acquisition, for the hold budget.
    since_us: u64,
}

/// First witness recorded for a lock-order edge `held → acquired`.
struct EdgeWitness {
    /// Name of the witnessing thread.
    thread: String,
    /// Labels of every lock held at the moment of acquisition, outermost
    /// first (the "witness stack").
    held_stack: Vec<String>,
}

/// Last-access bookkeeping for one audited memory site (shared table).
#[derive(Default)]
struct MemState {
    /// Epoch and thread name of the last write.
    last_write: Option<(usize, u32, String)>,
    /// Per-thread read epochs since the last write.
    reads: BTreeMap<usize, (u32, String)>,
}

/// All auditor state. One instance per process, behind [`lock_core`].
pub(crate) struct CoreState {
    /// Bumped by reset; thread-local tids from an older epoch are
    /// re-allocated on first use so a reset fully clears the clocks.
    epoch: u64,
    next_tid: usize,
    thread_vcs: Vec<Vc>,
    thread_names: Vec<String>,
    /// Per-thread stacks of currently held audited locks.
    held: Vec<Vec<Held>>,
    /// Site registry: site address → the site, for rendering.
    sites: HashMap<usize, &'static Site>,
    /// Lock-order graph: `(held site, acquired site)` → first witness.
    edges: HashMap<(usize, usize), EdgeWitness>,
    /// Release clocks per lock instance (acquire joins, release stores).
    lock_clocks: HashMap<usize, Vc>,
    /// Happens-before clocks per channel id (send joins in, recv joins out).
    chan_clocks: HashMap<u64, Vc>,
    /// Happens-before clocks per publish/load cell (Arc-swap snapshots).
    pub_clocks: HashMap<usize, Vc>,
    /// Access history per audited memory site *instance* — keyed
    /// `(site address, instance address)` so independent tables behind
    /// the same code path (one router per client thread) never
    /// cross-implicate.
    mem: HashMap<(usize, usize), MemState>,
    /// Accumulated hazard/race/poison findings (cycles are derived from
    /// `edges` at report time).
    findings: Vec<Finding>,
    /// Dedup keys so a hot path reports each distinct defect once.
    dedup: HashSet<(u8, usize, usize)>,
    /// Hold-time budget on the virtual clock, micros. Opt-in: `None`
    /// disables the detector (the global virtual clock advances from
    /// other threads, so a default budget would fire spuriously).
    hold_budget_us: Option<u64>,
}

impl CoreState {
    fn new() -> CoreState {
        CoreState {
            epoch: 1,
            next_tid: 0,
            thread_vcs: Vec::new(),
            thread_names: Vec::new(),
            held: Vec::new(),
            sites: HashMap::new(),
            edges: HashMap::new(),
            lock_clocks: HashMap::new(),
            chan_clocks: HashMap::new(),
            pub_clocks: HashMap::new(),
            mem: HashMap::new(),
            findings: Vec::new(),
            dedup: HashSet::new(),
            hold_budget_us: std::env::var("PARDIS_AUDIT_HOLD_BUDGET_US")
                .ok()
                .and_then(|v| v.parse().ok()),
        }
    }

    fn reset(&mut self) {
        // Monotone across resets so no thread's cached tid ever matches a
        // post-reset epoch (including the initial epoch 1).
        static RESETS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let budget = self.hold_budget_us;
        *self = CoreState::new();
        self.hold_budget_us = budget;
        self.epoch = RESETS.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
    }
}

thread_local! {
    /// `(core epoch, tid)` — tid is valid only while the epoch matches.
    static TID: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

fn lock_core() -> MutexGuard<'static, CoreState> {
    static CORE: OnceLock<Mutex<CoreState>> = OnceLock::new();
    // The auditor's own lock is never audited and each hook is a short
    // straight-line section; recover from poison (a panicking caller mid
    // hook) rather than cascading.
    CORE.get_or_init(|| Mutex::new(CoreState::new())).lock().unwrap_or_else(|e| e.into_inner())
}

/// The calling thread's id in `st`, allocating on first use (or after a
/// reset invalidated the cached one).
fn tid(st: &mut CoreState) -> usize {
    TID.with(|c| {
        let (epoch, t) = c.get();
        if epoch == st.epoch {
            return t;
        }
        let t = st.next_tid;
        st.next_tid += 1;
        let mut vc = vec![0; t + 1];
        vc[t] = 1;
        st.thread_vcs.push(vc);
        st.thread_names.push(
            std::thread::current().name().map_or_else(|| format!("thread-{t}"), str::to_string),
        );
        st.held.push(Vec::new());
        c.set((st.epoch, t));
        t
    })
}

fn site_desc(site: &Site) -> String {
    format!("{}/{}:{} `{}`", site.krate, site.file, site.line, site.label)
}

fn record(st: &mut CoreState, dedup: (u8, usize, usize), finding: Finding) {
    if st.dedup.insert(dedup) {
        st.findings.push(finding);
    }
}

/// Acquisition bookkeeping, called *after* the underlying lock succeeded:
/// re-entrancy check, lock-order edges from every held lock, push onto the
/// held stack, and the happens-before join from the lock's release clock.
pub(crate) fn on_locked(site: &'static Site, instance: usize, acq: Acq) {
    let mut st = lock_core();
    let st = &mut *st;
    let t = tid(st);
    let site_id = site as *const Site as usize;
    st.sites.entry(site_id).or_insert(site);

    if st.held[t].iter().any(|h| h.instance == instance) {
        let finding = Finding {
            severity: Severity::Error,
            kind: Kind::Reentrant,
            site: Some(site_desc(site)),
            detail: format!(
                "thread `{}` re-acquired a lock it already holds ({})",
                st.thread_names[t],
                match acq {
                    Acq::Write => "exclusive: guaranteed self-deadlock",
                    Acq::Read => "shared: deadlocks under writer priority",
                }
            ),
        };
        record(st, (0, instance, 0), finding);
    }

    // One order edge per held lock, first witness wins. Self-edges are
    // skipped: same-site nesting (two instances reached through one code
    // path) is ordered by construction, and flagging it would damn every
    // striping pattern.
    for i in 0..st.held[t].len() {
        let held_site = st.held[t][i].site;
        if held_site == site_id || st.edges.contains_key(&(held_site, site_id)) {
            continue;
        }
        let witness = EdgeWitness {
            thread: st.thread_names[t].clone(),
            held_stack: st.held[t].iter().map(|h| site_desc(st.sites[&h.site])).collect(),
        };
        st.edges.insert((held_site, site_id), witness);
    }

    st.held[t].push(Held { site: site_id, instance, since_us: pardis_obs::now_micros() });

    if let Some(clock) = st.lock_clocks.get(&instance).cloned() {
        vc_join(&mut st.thread_vcs[t], &clock);
    }
}

/// Release bookkeeping: pop the held entry, check the hold budget, publish
/// the thread's clock into the lock's release clock, advance the epoch.
pub(crate) fn on_unlocked(site: &'static Site, instance: usize) {
    let mut st = lock_core();
    let st = &mut *st;
    let t = tid(st);
    if let Some(pos) = st.held[t].iter().rposition(|h| h.instance == instance) {
        let held = st.held[t].remove(pos);
        if let Some(budget) = st.hold_budget_us {
            let held_us = pardis_obs::now_micros().saturating_sub(held.since_us);
            if held_us > budget {
                let finding = Finding {
                    severity: Severity::Advice,
                    kind: Kind::HoldBudget,
                    site: Some(site_desc(site)),
                    detail: format!(
                        "thread `{}` held the lock {held_us}µs of virtual time (budget \
                         {budget}µs)",
                        st.thread_names[t]
                    ),
                };
                record(st, (1, held.site, 0), finding);
            }
        }
    }
    let t_vc = st.thread_vcs[t].clone();
    vc_join(st.lock_clocks.entry(instance).or_default(), &t_vc);
    st.thread_vcs[t][t] += 1;
}

/// A blocking wire/network call is about to run on this thread; flag every
/// audited lock currently held across it.
pub(crate) fn on_wire_call(what: &str) {
    let mut st = lock_core();
    let st = &mut *st;
    let t = tid(st);
    let mut what_hash = 0usize;
    for b in what.bytes() {
        what_hash = what_hash.wrapping_mul(31).wrapping_add(b as usize);
    }
    for i in 0..st.held[t].len() {
        let site_id = st.held[t][i].site;
        let finding = Finding {
            severity: Severity::Warning,
            kind: Kind::WireCall,
            site: Some(site_desc(st.sites[&site_id])),
            detail: format!(
                "thread `{}` holds this lock across {what}: hold time includes modelled \
                 network latency",
                st.thread_names[t]
            ),
        };
        record(st, (2, site_id, what_hash), finding);
    }
}

/// Happens-before: a channel send. The sender's clock joins the channel's
/// clock (over-approximate: every send orders before every later recv).
pub(crate) fn on_chan_send(chan: u64) {
    let mut st = lock_core();
    let st = &mut *st;
    let t = tid(st);
    let t_vc = st.thread_vcs[t].clone();
    vc_join(st.chan_clocks.entry(chan).or_default(), &t_vc);
    st.thread_vcs[t][t] += 1;
}

/// Happens-before: a channel receive joins the channel's clock into the
/// receiver.
pub(crate) fn on_chan_recv(chan: u64) {
    let mut st = lock_core();
    let st = &mut *st;
    let t = tid(st);
    if let Some(clock) = st.chan_clocks.get(&chan).cloned() {
        vc_join(&mut st.thread_vcs[t], &clock);
    }
}

/// Happens-before: an Arc-swap publish (`Published::store`). Everything
/// the publisher did orders before any load that observes the snapshot.
pub(crate) fn on_publish(cell: usize) {
    let mut st = lock_core();
    let st = &mut *st;
    let t = tid(st);
    let t_vc = st.thread_vcs[t].clone();
    vc_join(st.pub_clocks.entry(cell).or_default(), &t_vc);
    st.thread_vcs[t][t] += 1;
}

/// Happens-before: an Arc-swap read (`Published::read`) joins the cell's
/// publish clock into the loader.
pub(crate) fn on_load(cell: usize) {
    let mut st = lock_core();
    let st = &mut *st;
    let t = tid(st);
    if let Some(clock) = st.pub_clocks.get(&cell).cloned() {
        vc_join(&mut st.thread_vcs[t], &clock);
    }
}

/// Race-check one access to an audited shared table. FastTrack-style: the
/// last write must happen-before every later access; reads accumulate per
/// thread and must all happen-before the next write.
pub(crate) fn on_access(site: &'static Site, instance: usize, write: bool) {
    let mut st = lock_core();
    let st = &mut *st;
    let t = tid(st);
    let site_id = site as *const Site as usize;
    let name = st.thread_names[t].clone();
    let my_vc = st.thread_vcs[t].clone();
    let my_clk = my_vc.get(t).copied().unwrap_or(0);
    let mem = st.mem.entry((site_id, instance)).or_default();

    let mut race: Option<String> = None;
    if let Some((w_tid, w_clk, w_name)) = &mem.last_write {
        if *w_tid != t && !epoch_hb(*w_tid, *w_clk, &my_vc) {
            race = Some(format!(
                "prior write by `{w_name}` is not ordered before this {} by `{name}`",
                if write { "write" } else { "read" }
            ));
        }
    }
    if write && race.is_none() {
        for (r_tid, (r_clk, r_name)) in &mem.reads {
            if *r_tid != t && !epoch_hb(*r_tid, *r_clk, &my_vc) {
                race = Some(format!(
                    "prior read by `{r_name}` is not ordered before this write by `{name}`"
                ));
                break;
            }
        }
    }

    if write {
        mem.last_write = Some((t, my_clk, name));
        mem.reads.clear();
    } else {
        mem.reads.insert(t, (my_clk, name));
    }

    if let Some(detail) = race {
        let finding = Finding {
            severity: Severity::Warning,
            kind: Kind::DataRace,
            site: Some(site_desc(site)),
            detail,
        };
        record(st, (4, site_id ^ instance.rotate_left(16), usize::from(write)), finding);
    }
}

/// A poisoned lock was recovered; record the advice finding (the
/// `lock.poisoned` obs counter is bumped by the wrapper, gate-independent).
pub(crate) fn on_poison_recovered(site: &'static Site) {
    let mut st = lock_core();
    let st = &mut *st;
    let site_id = site as *const Site as usize;
    st.sites.entry(site_id).or_insert(site);
    record(
        st,
        (5, site_id, 0),
        Finding {
            severity: Severity::Advice,
            kind: Kind::Poisoned,
            site: Some(site_desc(site)),
            detail: "recovered a poisoned guard (a holder panicked); state may be mid-update"
                .to_string(),
        },
    );
}

/// Set (or clear) the virtual-clock hold-time budget programmatically.
pub(crate) fn set_hold_budget(us: Option<u64>) {
    lock_core().hold_budget_us = us;
}

/// Strongly-connected components of the lock-order graph (iterative
/// Tarjan). Nodes are site addresses; only components with ≥ 2 members
/// are returned (self-edges never enter the graph).
fn sccs(nodes: &[usize], edges: &HashMap<(usize, usize), EdgeWitness>) -> Vec<Vec<usize>> {
    let index_of: HashMap<usize, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (from, to) in edges.keys() {
        adj[index_of[from]].push(index_of[to]);
    }
    for a in &mut adj {
        a.sort_unstable();
    }

    let n = nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next = 0usize;
    let mut out = Vec::new();
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        frames.push((root, 0));
        while let Some(&(v, cursor)) = frames.last() {
            if cursor == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(cursor) {
                frames.last_mut().expect("frame present").1 += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(nodes[w]);
                        if w == v {
                            break;
                        }
                    }
                    if comp.len() > 1 {
                        out.push(comp);
                    }
                }
            }
        }
    }
    out
}

/// Build the report: accumulated findings plus one [`Kind::LockCycle`]
/// finding per strongly-connected component of the order graph, each
/// naming every member site and quoting the witness stack of every edge
/// inside the component.
pub(crate) fn build_report() -> AuditReport {
    let st = lock_core();
    let mut findings = st.findings.clone();

    let mut nodes: Vec<usize> = st.sites.keys().copied().collect();
    nodes.sort_by_key(|id| {
        let s = st.sites[id];
        (s.krate, s.file, s.line)
    });

    let mut comps = sccs(&nodes, &st.edges);
    for comp in &mut comps {
        comp.sort_by_key(|id| {
            let s = st.sites[id];
            (s.krate, s.file, s.line)
        });
    }
    comps.sort_by_key(|comp| {
        let s = st.sites[&comp[0]];
        (s.krate, s.file, s.line)
    });

    for comp in comps {
        let members: Vec<String> = comp.iter().map(|id| site_desc(st.sites[id])).collect();
        let in_comp: HashSet<usize> = comp.iter().copied().collect();
        // Witnesses sorted by rendered site pair: deterministic across
        // runs (site *addresses* are not).
        let mut edge_lines: Vec<(String, String)> = st
            .edges
            .iter()
            .filter(|((f, to), _)| in_comp.contains(f) && in_comp.contains(to))
            .map(|((_, to), w)| {
                (
                    site_desc(st.sites[to]),
                    format!(
                        "witness: thread `{}` acquired {} while holding [{}]",
                        w.thread,
                        site_desc(st.sites[to]),
                        w.held_stack.join(" -> ")
                    ),
                )
            })
            .collect();
        edge_lines.sort();
        let mut detail = format!("inconsistent lock order over {{{}}}", members.join(", "));
        for (_, line) in edge_lines {
            detail.push_str("; ");
            detail.push_str(&line);
        }
        findings.push(Finding {
            severity: Severity::Error,
            kind: Kind::LockCycle,
            site: Some(site_desc(st.sites[&comp[0]])),
            detail,
        });
    }

    AuditReport { sites_seen: st.sites.len(), findings }
}

/// Clear all auditor state (graph, clocks, findings); thread ids allocate
/// afresh on next use.
pub(crate) fn reset_state() {
    lock_core().reset();
}
