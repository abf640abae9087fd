//! Distribution templates and transfer planning.
//!
//! A *distribution template* describes "in what proportions the elements of a
//! sequence should be distributed among the processors" (§3.2). The ORB uses
//! the client-side and server-side templates of an argument to plan the
//! transfer: with knowledge of both distributions it can move each element
//! directly between the owning computing threads of client and server — the
//! optimisation of Keahey & Gannon's companion paper \[KG97\] — instead of
//! funneling everything through thread 0.

use crate::strided::{plan_transfer, Owned, PlanPiece, Strided};
use pardis_cdr::{CdrCodec, CdrError, Decoder, Encoder, TypeCode};

/// How a distributed sequence's elements are mapped onto the computing
/// threads of one side of an invocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Distribution {
    /// Contiguous blocks, as equal as possible; the first `len % n` threads
    /// get one extra element. The paper's default (`BLOCK`).
    #[default]
    Block,
    /// Round-robin by element (`CYCLIC`): element `i` lives on thread
    /// `i % n`.
    Cyclic,
    /// All elements on one thread — the paper's "concentrated on one
    /// processor" server-side default in the §3.2 example.
    Concentrated(usize),
    /// Explicit element counts per thread, in thread order. Generalises the
    /// paper's "proportions" template; must sum to the sequence length at
    /// application time.
    Irregular(Vec<u64>),
    /// Blocks of `b` elements dealt round-robin (`BLOCK_CYCLIC(b)`): block
    /// `j` lives on thread `j % n`. The flexibility extension the paper's
    /// future-work section calls for; `BlockCyclic(1)` is `Cyclic`.
    BlockCyclic(u64),
}

/// A maximal run of consecutive global indices owned by one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First global index of the run.
    pub start: u64,
    /// Number of elements in the run.
    pub count: u64,
}

impl Distribution {
    /// The thread owning global index `idx` under this distribution of `len`
    /// elements over `n` threads.
    ///
    /// # Panics
    /// Panics if `idx >= len`, `n == 0`, or an irregular template does not
    /// cover `len` elements.
    pub fn owner(&self, len: u64, n: usize, idx: u64) -> usize {
        assert!(n > 0, "distribution over zero threads");
        assert!(idx < len, "index {idx} out of range for length {len}");
        match self {
            Distribution::Block => {
                let n = n as u64;
                let base = len / n;
                let extra = len % n;
                // First `extra` threads own (base+1) elements each.
                let fat = extra * (base + 1);
                #[allow(clippy::manual_checked_ops)]
                if idx < fat {
                    (idx / (base + 1)) as usize
                } else if base == 0 {
                    // len < n and idx >= fat cannot happen (fat == len).
                    unreachable!("index beyond distributed range")
                } else {
                    (extra + (idx - fat) / base) as usize
                }
            }
            Distribution::Cyclic => (idx % n as u64) as usize,
            Distribution::Concentrated(t) => {
                assert!(*t < n, "concentrated thread {t} out of range for {n} threads");
                *t
            }
            Distribution::Irregular(counts) => {
                assert_eq!(counts.len(), n, "irregular template thread count mismatch");
                let total: u64 = counts.iter().sum();
                assert_eq!(total, len, "irregular template covers {total} of {len} elements");
                let mut acc = 0u64;
                for (t, c) in counts.iter().enumerate() {
                    acc += c;
                    if idx < acc {
                        return t;
                    }
                }
                unreachable!("prefix sums cover the length")
            }
            Distribution::BlockCyclic(b) => {
                assert!(*b > 0, "block-cyclic block size must be positive");
                ((idx / b) % n as u64) as usize
            }
        }
    }

    /// The number of elements thread `t` owns.
    pub(crate) fn local_len(&self, len: u64, n: usize, t: usize) -> u64 {
        assert!(t < n, "thread {t} out of range for {n} threads");
        match self {
            Distribution::Block => {
                let n64 = n as u64;
                let base = len / n64;
                let extra = len % n64;
                base + u64::from((t as u64) < extra)
            }
            Distribution::Cyclic => {
                let n64 = n as u64;
                let base = len / n64;
                base + u64::from((t as u64) < len % n64)
            }
            Distribution::Concentrated(c) => {
                if t == *c {
                    len
                } else {
                    0
                }
            }
            Distribution::Irregular(counts) => {
                assert_eq!(counts.len(), n, "irregular template thread count mismatch");
                counts[t]
            }
            Distribution::BlockCyclic(b) => {
                assert!(*b > 0, "block-cyclic block size must be positive");
                let nblocks = len.div_ceil(*b);
                let t64 = t as u64;
                let n64 = n as u64;
                if nblocks == 0 {
                    return 0;
                }
                // Full blocks owned by t, plus the (possibly short) last block.
                let owned_full = (nblocks / n64) * b + if nblocks % n64 > t64 { *b } else { 0 };
                let last_block = nblocks - 1;
                if last_block % n64 == t64 {
                    let last_size = len - last_block * b;
                    owned_full - b + last_size
                } else {
                    owned_full
                }
            }
        }
    }

    /// The index set thread `t` owns, in closed form: one run for
    /// block/concentrated/irregular templates, a strided body (stride `n`
    /// block 1 for cyclic, stride `n*b` block `b` for block-cyclic) plus at
    /// most one short tail block otherwise. Its size never depends on `len`.
    pub(crate) fn owned(&self, len: u64, n: usize, t: usize) -> Owned {
        assert!(t < n, "thread {t} out of range for {n} threads");
        if len == 0 {
            return Owned::default();
        }
        let block = match self {
            // One thread owns everything, whatever the template.
            _ if n == 1 => return Owned([Some(Strided::run(0, len)), None]),
            Distribution::Cyclic => 1,
            Distribution::BlockCyclic(b) => {
                assert!(*b > 0, "block-cyclic block size must be positive");
                // A block longer than the sequence is the whole sequence.
                (*b).min(len)
            }
            _ => {
                let count = self.local_len(len, n, t);
                let run = (count > 0).then(|| Strided::run(self.run_start(len, n, t), count));
                return Owned([run, None]);
            }
        };
        let (t64, n64) = (t as u64, n as u64);
        // Blocks t, t+n, ... of the `whole` full blocks; the short last
        // block (index `whole`) goes to thread `whole % n`.
        let (whole, short) = (len / block, len % block);
        let mine = whole.saturating_sub(t64).div_ceil(n64);
        let body = Strided::new(t64.saturating_mul(block), n64.saturating_mul(block), block, mine);
        let tail = (short > 0 && whole % n64 == t64).then(|| Strided::run(whole * block, short));
        Owned([body, tail])
    }

    /// The maximal runs of global indices thread `t` owns, in ascending
    /// order.
    pub(crate) fn runs(&self, len: u64, n: usize, t: usize) -> Vec<Run> {
        self.owned(len, n, t).iter().flat_map(Strided::runs).collect()
    }

    /// First global index of thread `t`'s single run under a block,
    /// irregular or concentrated template.
    fn run_start(&self, len: u64, n: usize, t: usize) -> u64 {
        match self {
            Distribution::Block => {
                let (n, t) = (n as u64, t as u64);
                t * (len / n) + t.min(len % n)
            }
            Distribution::Irregular(counts) => counts[..t].iter().sum(),
            Distribution::Concentrated(_) => 0,
            _ => unreachable!("cyclic templates own more than one run"),
        }
    }

    /// Map a global index to the owning thread's local offset.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub(crate) fn global_to_local(&self, len: u64, n: usize, idx: u64) -> (usize, u64) {
        let owner = self.owner(len, n, idx);
        let local = match self {
            Distribution::Block | Distribution::Irregular(_) | Distribution::Concentrated(_) => {
                idx - self.run_start(len, n, owner)
            }
            Distribution::Cyclic => idx / n as u64,
            Distribution::BlockCyclic(b) => {
                let block = idx / b;
                (block / n as u64) * b + idx % b
            }
        };
        (owner, local)
    }

    /// Map a thread-local offset back to the global index.
    #[cfg(test)]
    pub(crate) fn local_to_global(&self, len: u64, n: usize, t: usize, local: u64) -> u64 {
        match self {
            Distribution::Cyclic => t as u64 + local * n as u64,
            Distribution::BlockCyclic(b) => {
                let ordinal = local / b;
                let block = ordinal * n as u64 + t as u64;
                block * b + local % b
            }
            _ => {
                assert!(
                    local < self.local_len(len, n, t),
                    "thread {t} has no local element {local}"
                );
                self.run_start(len, n, t) + local
            }
        }
    }

    /// Validate this template against a length and thread count, returning a
    /// human-readable complaint rather than panicking.
    pub(crate) fn validate(&self, len: u64, n: usize) -> Result<(), String> {
        if n == 0 {
            return Err("distribution over zero threads".into());
        }
        match self {
            Distribution::Concentrated(t) if *t >= n => {
                Err(format!("concentrated thread {t} out of range for {n} threads"))
            }
            Distribution::Irregular(counts) => {
                if counts.len() != n {
                    return Err(format!(
                        "irregular template has {} entries for {n} threads",
                        counts.len()
                    ));
                }
                // Checked: the counts may come off a wire.
                match counts.iter().try_fold(0u64, |sum, c| sum.checked_add(*c)) {
                    Some(total) if total == len => Ok(()),
                    Some(total) => {
                        Err(format!("irregular template covers {total} of {len} elements"))
                    }
                    None => Err(format!("irregular template overflows covering {len} elements")),
                }
            }
            Distribution::BlockCyclic(0) => Err("block-cyclic block size must be positive".into()),
            _ => Ok(()),
        }
    }
}

/// [`plan_transfer`] under the name it had while plans were element-granular
/// and worth caching; a strided plan is a handful of descriptors computed in
/// well under a microsecond, so there is nothing left to cache.
#[doc(hidden)]
pub fn plan_transfer_cached(
    len: u64,
    src_dist: &Distribution,
    src_n: usize,
    dst_dist: &Distribution,
    dst_n: usize,
) -> Vec<PlanPiece> {
    plan_transfer(len, src_dist, src_n, dst_dist, dst_n)
}

impl CdrCodec for Distribution {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Distribution::Block => e.write_u32(0),
            Distribution::Cyclic => e.write_u32(1),
            Distribution::Concentrated(t) => {
                e.write_u32(2);
                e.write_u64(*t as u64);
            }
            Distribution::Irregular(counts) => {
                e.write_u32(3);
                counts.encode(e);
            }
            Distribution::BlockCyclic(b) => {
                e.write_u32(4);
                e.write_u64(*b);
            }
        }
    }
    fn decode(d: &mut Decoder) -> Result<Self, CdrError> {
        Ok(match d.read_u32()? {
            0 => Distribution::Block,
            1 => Distribution::Cyclic,
            2 => Distribution::Concentrated(d.read_u64()? as usize),
            3 => Distribution::Irregular(Vec::<u64>::decode(d)?),
            4 => Distribution::BlockCyclic(d.read_u64()?),
            other => {
                return Err(CdrError::InvalidEnumDiscriminant {
                    name: "Distribution".into(),
                    value: other,
                })
            }
        })
    }
    fn type_code() -> TypeCode {
        TypeCode::Enum {
            name: "Distribution".into(),
            variants: std::sync::Arc::new(vec![
                "Block".into(),
                "Cyclic".into(),
                "Concentrated".into(),
                "Irregular".into(),
                "BlockCyclic".into(),
            ]),
        }
    }
}
