//! §4.2 / figure 4 — the DNA database metaapplication.
//!
//! A parallel server hosts one SPMD object (`dna_db`) whose `search`
//! operation scans a synthetic DNA database in parallel, plus five *single*
//! objects (`list_server`) holding the partial results: one list of exact
//! matches and one per edit-distance derivative class (transposition,
//! deletion, substitution, addition). Between chunks of its scan each
//! computing thread lets the ORB in (`process_requests`), and a thread with
//! nothing to scan parks until a frame or an RTS message arrives
//! (`wait_for_work`), so clients can query the lists *while the search
//! runs* — the `search` reply itself is deferred until every thread
//! finishes its shard.
//!
//! Placement of the five single objects over the computing threads is the
//! experiment's variable: `Centralized` puts all five on thread 0 (the
//! "only one thread visible to the ORB" model); `Distributed` deals them
//! round-robin, balancing "by numbers, not by weight" exactly as the paper
//! notes.
//!
//! **Substitution note (DESIGN.md §1):** the paper searched a real DNA
//! database; we generate a deterministic synthetic one. The paper classifies
//! a sequence by whether *its* single-edit derivatives contain the
//! substring; we equivalently test the sequence against the single-edit
//! variants of the query, which exercises the same amount of scanning work
//! per class.

use crate::ServerHandle;
use bytes::Bytes;
use pardis::core::{
    DeferredCall, DispatchResult, DistPolicy, Orb, Poa, Servant, ServantCtx, ServerGroup,
    ServerReply, ServerRequest,
};
use pardis::generated::dna::{ListServerImpl, ListServerSkel, Status};
use pardis::netsim::HostId;
use pardis::rts::{tags, MpiRts, Rts, World};
use pardis_cdr::{ByteOrder, CdrCodec, Decoder, Encoder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The five partial-result lists of §4.2.
pub const LIST_NAMES: [&str; 5] =
    ["exact", "transposition", "deletion", "substitution", "addition"];

/// Relative per-query processing weight of each list server. "Different
/// list servers take different time to process client's queries" — the
/// exact-match list is the heaviest here.
pub const DEFAULT_WEIGHTS: [u64; 5] = [8, 4, 2, 1, 1];

/// Where the five single objects live on the parallel server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// All list servers on computing thread 0.
    Centralized,
    /// Round-robin over the computing threads — balanced "by numbers, not
    /// by weight".
    Distributed,
}

impl Placement {
    /// The computing thread that owns list `l` under this scheme.
    pub fn owner(self, l: usize, nthreads: usize) -> usize {
        match self {
            Placement::Centralized => 0,
            Placement::Distributed => l % nthreads,
        }
    }
}

/// Deterministic synthetic DNA database.
pub fn gen_database(n: usize, min_len: usize, max_len: usize, seed: u64) -> Vec<String> {
    assert!(min_len <= max_len && min_len > 0, "bad length range");
    let mut rng = StdRng::seed_from_u64(seed);
    const BASES: [char; 4] = ['A', 'C', 'G', 'T'];
    (0..n)
        .map(|_| {
            let len = rng.random_range(min_len..=max_len);
            (0..len).map(|_| BASES[rng.random_range(0..4)]).collect()
        })
        .collect()
}

/// All single-edit variants of `q`, one vector per derivative class:
/// transposition, deletion, substitution, addition.
pub fn derivatives(q: &str) -> [Vec<String>; 4] {
    const BASES: [char; 4] = ['A', 'C', 'G', 'T'];
    let chars: Vec<char> = q.chars().collect();
    let mut transposition = Vec::new();
    for i in 0..chars.len().saturating_sub(1) {
        if chars[i] != chars[i + 1] {
            let mut v = chars.clone();
            v.swap(i, i + 1);
            transposition.push(v.iter().collect());
        }
    }
    let mut deletion = Vec::new();
    for i in 0..chars.len() {
        let mut v = chars.clone();
        v.remove(i);
        if !v.is_empty() {
            deletion.push(v.iter().collect());
        }
    }
    let mut substitution = Vec::new();
    for i in 0..chars.len() {
        for b in BASES {
            if b != chars[i] {
                let mut v = chars.clone();
                v[i] = b;
                substitution.push(v.iter().collect());
            }
        }
    }
    let mut addition = Vec::new();
    for i in 0..=chars.len() {
        for b in BASES {
            let mut v = chars.clone();
            v.insert(i, b);
            addition.push(v.iter().collect());
        }
    }
    [transposition, deletion, substitution, addition]
}

/// Classify one database sequence against a query: `Some(0)` exact,
/// `Some(1..=4)` the first matching derivative class, `None` no match.
pub fn classify(seq: &str, query: &str, deriv: &[Vec<String>; 4]) -> Option<usize> {
    if seq.contains(query) {
        return Some(0);
    }
    for (c, variants) in deriv.iter().enumerate() {
        if variants.iter().any(|v| seq.contains(v.as_str())) {
            return Some(c + 1);
        }
    }
    None
}

/// The `list_server` servant: holds one partial-result list, answers
/// `match` by filtering it after the configured modelled processing cost.
///
/// The cost is modelled as a sleep rather than a spin so the concurrency
/// effects of figure 4 (queries serialising on one computing thread vs
/// spreading over several) reproduce on machines with any core count.
pub struct ListHolder {
    /// Shared list contents (the search side appends).
    pub entries: Arc<Mutex<Vec<String>>>,
    /// Modelled per-query processing cost in microseconds.
    pub work_units: u64,
}

impl ListServerImpl for ListHolder {
    fn match_(&self, _ctx: &ServantCtx, s: String) -> Result<(Vec<String>,), String> {
        std::thread::sleep(Duration::from_micros(self.work_units));
        let hits =
            self.entries.lock().unwrap().iter().filter(|e| e.contains(&s)).cloned().collect();
        Ok((hits,))
    }
}

/// The `dna_db` servant. `search` parks the request (deferred reply) and
/// records the query for the server main loop; the reply is completed when
/// every computing thread has finished scanning its shard.
pub struct DnaDbServant {
    queries: Arc<Mutex<VecDeque<String>>>,
}

impl Servant for DnaDbServant {
    fn interface(&self) -> &str {
        "dna_db"
    }
    fn dispatch(&self, _req: ServerRequest<'_>) -> Result<ServerReply, String> {
        unreachable!("dna_db always dispatches through dispatch_deferred")
    }
    fn dispatch_deferred(&self, req: ServerRequest<'_>) -> Result<DispatchResult, String> {
        match req.op {
            "search" => {
                // Queue the query; overlapping searches run back to back
                // in arrival order (which the ORB already sequences per
                // client entity).
                let s: String = req.scalar(0).map_err(|e| e.to_string())?;
                self.queries.lock().unwrap().push_back(s);
                Ok(DispatchResult::Defer)
            }
            other => Err(format!("interface dna_db has no operation {other:?}")),
        }
    }
}

/// App-level tags (user band): partial results to a list owner, a thread's
/// shard-done notice to every thread, and the per-thread drained
/// acknowledgement to thread 0 that gates the search reply.
const RESULT_TAG: u64 = 0x0D0A;
const DONE_TAG: u64 = 0x0D0B;
const DRAINED_TAG: u64 = 0x0D0D;

fn encode_results(list: u32, items: &[String]) -> Bytes {
    let mut e = Encoder::new(ByteOrder::native());
    e.write_u32(list);
    items.to_vec().encode(&mut e);
    e.finish()
}

fn decode_results(data: &Bytes) -> (u32, Vec<String>) {
    let mut d = Decoder::new(data.clone(), ByteOrder::native());
    let list = d.read_u32().expect("list index");
    let items = Vec::<String>::decode(&mut d).expect("items");
    (list, items)
}

/// Configuration of the DNA parallel server.
#[derive(Debug, Clone)]
pub struct DnaServerConfig {
    /// Computing threads of the server.
    pub nthreads: usize,
    /// Database sequences (shared over threads by round-robin shards).
    pub db_size: usize,
    /// Sequence length range.
    pub len_range: (usize, usize),
    /// Database seed.
    pub seed: u64,
    /// Single-object placement scheme.
    pub placement: Placement,
    /// Sequences scanned per main-loop iteration and thread.
    pub chunk: usize,
    /// Per-list `match` modelled processing cost (microseconds per query).
    pub weights: [u64; 5],
    /// Modelled extra scan cost per database sequence (microseconds) —
    /// stands in for the heavier per-sequence analysis of the original
    /// system so the search has the figure's multi-second footprint.
    pub scan_cost_us: u64,
}

impl Default for DnaServerConfig {
    fn default() -> Self {
        DnaServerConfig {
            nthreads: 4,
            db_size: 2_000,
            len_range: (40, 80),
            seed: 42,
            placement: Placement::Distributed,
            chunk: 16,
            weights: DEFAULT_WEIGHTS,
            scan_cost_us: 0,
        }
    }
}

/// Per-thread search progress: the next row of the shard to scan, or
/// `None` once the whole shard is scanned.
struct SearchState {
    query: String,
    deriv: [Vec<String>; 4],
    next: Option<usize>,
}

/// Launch the complete §4.2 parallel server: the SPMD `dna_db` object plus
/// the five single `list_server` objects placed per the configuration. The
/// object names are `"dna_db"` and the entries of [`LIST_NAMES`].
pub fn spawn_dna_server(orb: &Orb, host: HostId, cfg: DnaServerConfig) -> ServerHandle {
    let group = ServerGroup::create(orb, "dna-server", host, cfg.nthreads);
    let g = group.clone();
    let chk = pardis::check::for_world(cfg.nthreads);
    let join = std::thread::spawn(move || {
        World::run(cfg.nthreads, |rank| {
            let rts = pardis::check::wrap_if(&chk, Arc::new(MpiRts::new(rank)));
            DnaRank::attach(&g, rts, cfg.clone()).run();
        });
        pardis::check::enforce(&chk);
    });
    ServerHandle::new(group, join)
}

/// One computing thread of the DNA server: its adapter and RTS endpoint,
/// the lists it owns, its shard, and where its search stands.
struct DnaRank {
    poa: Poa,
    rts: Arc<dyn Rts>,
    cfg: DnaServerConfig,
    /// Queries of `search` requests not yet started ([`DnaDbServant`]).
    queries: Arc<Mutex<VecDeque<String>>>,
    /// The lists placed on this thread, by list index.
    lists: Vec<(usize, Arc<Mutex<Vec<String>>>)>,
    /// This thread's round-robin rows of the (deterministic) database.
    shard: Vec<String>,
    search: Option<SearchState>,
    deferred: VecDeque<DeferredCall>,
    /// Shard-done notices counted so far, and drained acknowledgements
    /// (thread 0 only).
    done: usize,
    acks: usize,
}

impl DnaRank {
    /// Attach this thread's adapter, activate the `dna_db` object
    /// (collectively) and the lists placed on this thread, and cut its shard.
    fn attach(group: &ServerGroup, rts: Arc<dyn Rts>, cfg: DnaServerConfig) -> DnaRank {
        let (t, p) = (rts.rank(), cfg.nthreads);
        let mut poa = group.attach(t, Some(rts.clone()));
        let queries = Arc::default();
        let db = DnaDbServant { queries: Arc::clone(&queries) };
        poa.activate_spmd("dna_db", Arc::new(db), DistPolicy::new());
        let mut lists = Vec::new();
        for (l, name) in
            LIST_NAMES.iter().enumerate().filter(|(l, _)| cfg.placement.owner(*l, p) == t)
        {
            let entries = Arc::new(Mutex::new(Vec::new()));
            let holder = ListHolder { entries: entries.clone(), work_units: cfg.weights[l] };
            poa.activate_single(name, Arc::new(ListServerSkel(holder)));
            lists.push((l, entries));
        }
        let db = gen_database(cfg.db_size, cfg.len_range.0, cfg.len_range.1, cfg.seed);
        let shard = db.into_iter().skip(t).step_by(p).collect();
        debug_assert!(tags::is_user(RESULT_TAG));
        let deferred = VecDeque::new();
        DnaRank { poa, rts, cfg, queries, lists, shard, search: None, deferred, done: 0, acks: 0 }
    }

    /// Take in the RTS messages, let the ORB in, then scan one chunk while
    /// this thread's shard of a search is left, and park otherwise, until
    /// the server closes.
    fn run(mut self) {
        loop {
            // Results for my lists are filed *before* serving queries, so a
            // `match` dispatched below sees everything already delivered to
            // this thread.
            self.take_in();
            self.poa.process_requests();
            self.deferred.extend(self.poa.take_deferred());
            if self.poa.is_closed() {
                return;
            }
            if self.search.is_none() {
                let query = self.queries.lock().unwrap().pop_front();
                self.search =
                    query.map(|q| SearchState { deriv: derivatives(&q), query: q, next: Some(0) });
            }
            if self.search.as_ref().is_some_and(|s| s.next.is_some()) {
                self.scan_chunk();
            } else {
                self.poa.wait_for_work();
            }
        }
    }

    /// Take in every message waiting for this thread, one handler per tag.
    ///
    /// Shard-done notices are taken before results: every result a thread
    /// sent before its notice is then already here, so once every thread's
    /// notice is in, this thread's lists are complete and it acknowledges
    /// to thread 0. Thread 0 replies to the search only once every thread
    /// has, so a client that sees the search complete sees complete lists.
    fn take_in(&mut self) {
        while self.rts.try_recv(None, DONE_TAG).is_some() {
            self.done += 1;
        }
        while let Some(msg) = self.rts.try_recv(None, RESULT_TAG) {
            let (l, items) = decode_results(&msg.data);
            self.file(l as usize, items);
        }
        let p = self.cfg.nthreads;
        if self.done >= p {
            // Notices of the next search may already be in the count.
            self.done -= p;
            self.search = None;
            self.rts.send(0, DRAINED_TAG, Bytes::new());
            // Only thread 0's reply reaches the client (SPMD reply control);
            // siblings retire their deferred copy now.
            if self.rts.rank() != 0 {
                self.reply_done();
            }
        }
        while self.rts.try_recv(None, DRAINED_TAG).is_some() {
            self.acks += 1;
            if self.acks == p {
                self.acks = 0;
                self.reply_done();
            }
        }
    }

    /// Scan the next chunk of my shard for the running search, file or send
    /// what it matches, and tell every thread when the shard is done.
    fn scan_chunk(&mut self) {
        let Some(SearchState { query, deriv, next }) = &mut self.search else { return };
        let Some(from) = *next else { return };
        let end = (from + self.cfg.chunk).min(self.shard.len());
        std::thread::sleep(Duration::from_micros(self.cfg.scan_cost_us * (end - from) as u64));
        let mut found: [Vec<String>; 5] = std::array::from_fn(|_| Vec::new());
        for s in &self.shard[from..end] {
            if let Some(c) = classify(s, query, deriv) {
                found[c].push(s.clone());
            }
        }
        *next = (end < self.shard.len()).then_some(end);
        let shard_done = next.is_none();
        for (l, items) in found.into_iter().enumerate().filter(|(_, items)| !items.is_empty()) {
            match self.cfg.placement.owner(l, self.cfg.nthreads) {
                owner if owner == self.rts.rank() => self.file(l, items),
                owner => self.rts.send(owner, RESULT_TAG, encode_results(l as u32, &items)),
            }
        }
        if shard_done {
            for dst in 0..self.cfg.nthreads {
                self.rts.send(dst, DONE_TAG, Bytes::new());
            }
        }
    }

    /// Append `items` to my list `l`.
    fn file(&self, l: usize, items: Vec<String>) {
        if let Some((_, entries)) = self.lists.iter().find(|(i, _)| *i == l) {
            entries.lock().unwrap().extend(items);
        }
    }

    /// Complete the oldest deferred search with `Done`.
    fn reply_done(&mut self) {
        if let Some(call) = self.deferred.pop_front() {
            let mut rep = ServerReply::new();
            rep.push_scalar(&Status::Done);
            self.poa.reply_deferred(call, Ok(rep));
        }
    }
}

/// The figure-4 client: issue a non-blocking `search`, then stream list
/// queries at the five list servers until the search resolves, then one
/// final round — the code structure of §4.2's client. Returns (elapsed
/// seconds of the query phase, completed query count, hits).
pub fn run_fig4_client(
    client: &pardis::core::ClientThread,
    search_sub: &str,
    query_subs: &[&str],
) -> pardis::core::OrbResult<(f64, usize, usize)> {
    use pardis::generated::dna::{DnaDbProxy, ListServerProxy};

    let db = DnaDbProxy::spmd_bind(client, "dna_db")?;
    let lists: Vec<ListServerProxy> =
        LIST_NAMES.iter().map(|n| ListServerProxy::bind(client, n)).collect::<Result<_, _>>()?;

    let start = std::time::Instant::now();
    let search = db.search_nb(&search_sub.to_string())?;
    let mut completed = 0usize;
    let mut hits = 0usize;
    let mut qi = 0usize;
    while !search.ret.resolved() {
        // One round of non-blocking queries over all five lists.
        let sub = query_subs[qi % query_subs.len()].to_string();
        qi += 1;
        let pending: Vec<_> = lists.iter().map(|l| l.match_nb(&sub)).collect::<Result<_, _>>()?;
        for fut in pending {
            let (found,) = (fut.l.get()?,);
            hits += found.len();
            completed += 1;
        }
    }
    let status = search.ret.get()?;
    debug_assert_eq!(status, Status::Done);
    // Final processing round.
    let sub = query_subs[qi % query_subs.len()].to_string();
    let pending: Vec<_> = lists.iter().map(|l| l.match_nb(&sub)).collect::<Result<_, _>>()?;
    for fut in pending {
        let (found,) = (fut.l.get()?,);
        hits += found.len();
        completed += 1;
    }
    Ok((start.elapsed().as_secs_f64(), completed, hits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_is_deterministic_and_shaped() {
        let db = gen_database(50, 10, 20, 9);
        assert_eq!(db, gen_database(50, 10, 20, 9));
        assert_ne!(db, gen_database(50, 10, 20, 10));
        assert_eq!(db.len(), 50);
        for s in &db {
            assert!(s.len() >= 10 && s.len() <= 20);
            assert!(s.chars().all(|c| "ACGT".contains(c)));
        }
    }

    #[test]
    fn derivative_classes_have_expected_shapes() {
        let [t, d, s, a] = derivatives("ACG");
        assert!(t.contains(&"CAG".to_string()));
        assert!(t.contains(&"AGC".to_string()));
        assert_eq!(d.len(), 3); // one per deleted position
        assert!(d.contains(&"CG".to_string()));
        assert_eq!(s.len(), 9); // 3 positions x 3 other bases
        assert!(s.contains(&"TCG".to_string()));
        assert_eq!(a.len(), 16); // 4 gaps x 4 bases
        assert!(a.contains(&"ACGT".to_string()));
    }

    #[test]
    fn classify_prefers_exact() {
        let deriv = derivatives("ACG");
        assert_eq!(classify("TTACGTT", "ACG", &deriv), Some(0));
        // "CAG" is a transposition variant of the query.
        assert_eq!(classify("TTCAGTT", "ACG", &deriv), Some(1));
        assert_eq!(classify("TTTTTTT", "ACG", &deriv), None);
    }

    #[test]
    fn placement_owners() {
        assert_eq!(Placement::Centralized.owner(4, 8), 0);
        assert_eq!(Placement::Distributed.owner(4, 3), 1);
        assert_eq!(Placement::Distributed.owner(2, 8), 2);
    }

    #[test]
    fn results_roundtrip() {
        let items = vec!["ACGT".to_string(), "GG".to_string()];
        let enc = encode_results(3, &items);
        assert_eq!(decode_results(&enc), (3, items));
    }
}
