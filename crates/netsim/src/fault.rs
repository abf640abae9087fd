//! Deterministic fault injection.
//!
//! The paper's testbed (dedicated ATM, shared Ethernet) was assumed
//! lossless and so was this simulator: every transfer delivered. A
//! [`FaultPlan`] breaks that assumption on purpose — frames can be dropped
//! (individually or in bursts), duplicated, or suppressed wholesale while a
//! link is down — so the ORB's reliability layer has something real to
//! survive.
//!
//! Everything is deterministic in the plan's seed: the verdict for the
//! `n`-th frame on a directed link is a pure hash of
//! `(seed, from, to, n)`, and link-down windows are expressed in virtual
//! clock seconds. Re-running a workload with the same seed reproduces the
//! same drop/duplicate schedule, which is what makes chaos failures
//! replayable.

/// What happened to a frame offered to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The frame arrives once (the lossless default).
    Delivered,
    /// The frame is lost in transit; the sender is not told.
    Dropped,
    /// The frame arrives twice (e.g. a retransmitting switch).
    Duplicated,
}

/// Counters of fault-layer activity (network-wide from
/// [`crate::Network::fault_stats`], per directed link from
/// [`crate::Network::link_fault_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames that arrived exactly once.
    pub delivered: u64,
    /// Frames lost for any reason (random + burst + link-down).
    pub dropped: u64,
    /// Frames that arrived twice.
    pub duplicated: u64,
    /// Of `dropped`: losses from the burst tail following a triggered drop
    /// (the triggering drop itself counts as a random loss).
    pub burst_dropped: u64,
    /// Of `dropped`: frames suppressed inside a link-down window.
    pub down_dropped: u64,
}

impl FaultStats {
    /// Of `dropped`: independent per-frame (hash-triggered) losses.
    pub fn random_dropped(&self) -> u64 {
        self.dropped - self.burst_dropped - self.down_dropped
    }

    pub(crate) fn account(&mut self, fate: FrameFate) {
        match fate {
            FrameFate::Delivered => self.delivered += 1,
            FrameFate::Duplicated => self.duplicated += 1,
            FrameFate::DroppedRandom => self.dropped += 1,
            FrameFate::DroppedBurst => {
                self.dropped += 1;
                self.burst_dropped += 1;
            }
            FrameFate::DroppedDown => {
                self.dropped += 1;
                self.down_dropped += 1;
            }
        }
    }
}

/// A seeded fault schedule, attachable to one link or network-wide.
///
/// Probabilities are per-frame; `burst_len` extends every triggered drop to
/// the following frames on the same directed link (burst loss); `down`
/// windows (in virtual-clock seconds) drop every frame whose transfer
/// completes inside them (a timed link-down / partition).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic per-frame schedule.
    pub seed: u64,
    /// Probability that a frame is dropped.
    pub drop_p: f64,
    /// Probability that a (non-dropped) frame is duplicated.
    pub dup_p: f64,
    /// Extra consecutive frames dropped after each triggered drop.
    pub burst_len: u32,
    /// Link-down windows `[start, end)` in virtual-clock seconds.
    pub down: Vec<(f64, f64)>,
}

const ENC_MAGIC: [u8; 4] = *b"FPLN";
const ENC_VERSION: u8 = 1;

impl FaultPlan {
    /// A plan that injects nothing (useful as a builder base).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, drop_p: 0.0, dup_p: 0.0, burst_len: 0, down: Vec::new() }
    }

    /// Set the per-frame drop probability.
    ///
    /// # Panics
    /// Panics if `p` is not a probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability must be in [0, 1]");
        self.drop_p = p;
        self
    }

    /// Set the per-frame duplication probability.
    ///
    /// # Panics
    /// Panics if `p` is not a probability.
    pub fn with_dup(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "duplication probability must be in [0, 1]");
        self.dup_p = p;
        self
    }

    /// Drop `extra` further frames after every triggered drop (burst loss).
    pub fn with_burst(mut self, extra: u32) -> Self {
        self.burst_len = extra;
        self
    }

    /// Add a link-down window `[start, end)` in virtual-clock seconds.
    ///
    /// # Panics
    /// Panics if the window is not well-formed.
    pub fn with_down_window(mut self, start: f64, end: f64) -> Self {
        assert!(
            start.is_finite() && end.is_finite() && start >= 0.0 && end > start,
            "down window must be finite and non-empty"
        );
        self.down.push((start, end));
        self
    }

    /// Serialise the plan (fixed little-endian layout, versioned) so chaos
    /// configurations can be stored next to results and replayed.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 1 + 8 + 8 + 8 + 4 + 4 + self.down.len() * 16);
        out.extend_from_slice(&ENC_MAGIC);
        out.push(ENC_VERSION);
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.drop_p.to_le_bytes());
        out.extend_from_slice(&self.dup_p.to_le_bytes());
        out.extend_from_slice(&self.burst_len.to_le_bytes());
        out.extend_from_slice(&(self.down.len() as u32).to_le_bytes());
        for (a, b) in &self.down {
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    }

    /// Inverse of [`FaultPlan::encode`]. Validates magic, version, and that
    /// the probabilities are probabilities.
    pub fn decode(data: &[u8]) -> Result<FaultPlan, String> {
        fn take<const N: usize>(data: &mut &[u8]) -> Result<[u8; N], String> {
            let Some((head, tail)) = data.split_first_chunk::<N>() else {
                return Err(format!("fault plan truncated: need {N} bytes, have {}", data.len()));
            };
            *data = tail;
            Ok(*head)
        }

        let mut d = data;
        if take::<4>(&mut d)? != ENC_MAGIC {
            return Err("not a fault plan (bad magic)".into());
        }
        let [version] = take::<1>(&mut d)?;
        if version != ENC_VERSION {
            return Err(format!("fault plan version {version}, expected {ENC_VERSION}"));
        }
        let seed = u64::from_le_bytes(take(&mut d)?);
        let drop_p = f64::from_le_bytes(take(&mut d)?);
        let dup_p = f64::from_le_bytes(take(&mut d)?);
        for (name, p) in [("drop", drop_p), ("dup", dup_p)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} probability {p} out of [0, 1]"));
            }
        }
        let burst_len = u32::from_le_bytes(take(&mut d)?);
        let n = u32::from_le_bytes(take(&mut d)?) as usize;
        let mut down = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            let a = f64::from_le_bytes(take(&mut d)?);
            let b = f64::from_le_bytes(take(&mut d)?);
            if !(a.is_finite() && b.is_finite() && a >= 0.0 && b > a) {
                return Err(format!("malformed down window [{a}, {b})"));
            }
            down.push((a, b));
        }
        if !d.is_empty() {
            return Err(format!("{} trailing bytes after fault plan", d.len()));
        }
        Ok(FaultPlan { seed, drop_p, dup_p, burst_len, down })
    }
}

/// SplitMix64 — a tiny, high-quality mixing step; enough entropy for fault
/// scheduling without pulling a RNG crate into the simulator.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a hash to `[0, 1)`.
pub(crate) fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`Verdict`] together with *why* a frame was lost — the per-cause
/// resolution behind [`FaultStats`]' breakdown fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameFate {
    Delivered,
    Duplicated,
    /// Independent hash-triggered loss.
    DroppedRandom,
    /// Loss from the burst tail of a preceding triggered drop.
    DroppedBurst,
    /// Loss inside a link-down window.
    DroppedDown,
}

impl FrameFate {
    pub(crate) fn verdict(self) -> Verdict {
        match self {
            FrameFate::Delivered => Verdict::Delivered,
            FrameFate::Duplicated => Verdict::Duplicated,
            _ => Verdict::Dropped,
        }
    }

    /// Stable label for trace events.
    pub(crate) fn label(self) -> &'static str {
        match self {
            FrameFate::Delivered => "delivered",
            FrameFate::Duplicated => "duplicated",
            FrameFate::DroppedRandom => "dropped",
            FrameFate::DroppedBurst => "dropped_burst",
            FrameFate::DroppedDown => "dropped_down",
        }
    }
}

/// Mutable per-directed-link schedule state: frame ordinal, burst countdown,
/// and this link's own fault counters. The plan is shared (`Arc`), so
/// materialising a lane's schedule — and every per-frame verdict — costs no
/// plan clone or allocation.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: std::sync::Arc<FaultPlan>,
    seq: u64,
    burst_left: u32,
    stats: FaultStats,
}

impl FaultState {
    pub(crate) fn new(plan: std::sync::Arc<FaultPlan>) -> FaultState {
        FaultState { plan, seq: 0, burst_left: 0, stats: FaultStats::default() }
    }

    /// This directed link's counters since its plan was installed (or since
    /// the last [`FaultState::reset_stats`]).
    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }

    pub(crate) fn reset_stats(&mut self) {
        self.stats = FaultStats::default();
    }

    /// Decide the fate of the next frame on this directed link. `now_s` is
    /// the virtual-clock reading at the frame's arrival.
    pub(crate) fn verdict(&mut self, from: u32, to: u32, now_s: f64) -> FrameFate {
        let fate = self.decide(from, to, now_s);
        self.stats.account(fate);
        fate
    }

    fn decide(&mut self, from: u32, to: u32, now_s: f64) -> FrameFate {
        if self.plan.down.iter().any(|(a, b)| now_s >= *a && now_s < *b) {
            return FrameFate::DroppedDown;
        }
        let n = self.seq;
        self.seq += 1;
        if self.burst_left > 0 {
            self.burst_left -= 1;
            return FrameFate::DroppedBurst;
        }
        let link = ((from as u64) << 32) | to as u64;
        let h = splitmix64(self.plan.seed ^ splitmix64(link) ^ splitmix64(n));
        if unit(h) < self.plan.drop_p {
            self.burst_left = self.plan.burst_len;
            return FrameFate::DroppedRandom;
        }
        if unit(splitmix64(h)) < self.plan.dup_p {
            return FrameFate::Duplicated;
        }
        FrameFate::Delivered
    }
}
