//! Soak: a long run of redistributions must not grow the process.
//!
//! Every `redistribute` exposes and withdraws one window per rank. The
//! window table once kept every version it had ever held (~1.1 KB per
//! operation, 80 MB after 73 200 benchmark operations); this pins the fix.
//! It lives in a test binary of its own so no other test's allocations show
//! up in the resident set it measures.

#![cfg(target_os = "linux")]

use pardis::core::{DSequence, Distribution};
use pardis::rts::{MpiRts, Rts, World};

fn resident_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS line");
    line.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()).expect("VmRSS in kB")
}

#[test]
fn resident_memory_is_flat_over_20000_redistributions() {
    const RANKS: usize = 2;
    let full: Vec<f64> = (0..1024).map(|i| i as f64).collect();
    let samples = World::run(RANKS, |rank| {
        let t = rank.rank();
        let rts = MpiRts::new(rank);
        let mut ds = DSequence::distribute(&full, Distribution::Block, RANKS, t);
        let mut ping_pong = |rounds: usize| {
            for _ in 0..rounds {
                ds.redistribute(&rts, Distribution::Cyclic);
                ds.redistribute(&rts, Distribution::Block);
            }
            // Both ranks quiet while rank 0 reads the resident set.
            rts.barrier();
            let kb = if t == 0 { resident_kb() } else { 0 };
            rts.barrier();
            kb
        };
        (ping_pong(1_000), ping_pong(9_000))
    });
    let (after_2k, after_20k) = samples[0];
    assert!(
        after_20k as f64 <= after_2k as f64 * 1.05,
        "resident set grew from {after_2k} kB after 2 000 redistributions to {after_20k} kB \
         after 20 000"
    );
}
