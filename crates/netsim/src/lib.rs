//! Network simulation substrate for PARDIS.
//!
//! The original PARDIS evaluation ran on a testbed of SGI and IBM SP/2
//! machines joined by a dedicated 155 Mb/s ATM link (figures 2 and 4) and by
//! Ethernet (figure 5). This crate replaces that hardware with a simple but
//! faithful cost model: every pair of [`Host`]s is joined by a [`Link`] with a
//! fixed latency, a bandwidth, and a fixed per-message software overhead. The
//! time to move an `n`-byte message is
//!
//! ```text
//! t(n) = latency + overhead + n / bandwidth
//! ```
//!
//! which is the classic alpha/beta (Hockney) model. Transfers inside one host
//! use the host's loopback link (typically near-zero cost).
//!
//! The simulator supports two clock modes:
//!
//! * **Scaled real time** ([`Network::charge`]): the caller is put to sleep for
//!   the modelled duration multiplied by a global [`TimeScale`]. This is what
//!   the figure-reproduction harnesses use — real computation runs at full
//!   speed while communication costs are injected at a scale that keeps a
//!   whole parameter sweep under a minute.
//! * **Virtual time** ([`Network::charge_virtual`]): no sleeping; the modelled
//!   cost is accumulated on a per-host virtual clock. Deterministic, used by
//!   unit tests of the cost model itself.
//!
//! A third mode layers **deterministic fault injection** on either clock: a
//! seeded [`FaultPlan`] (drop probability, duplication, burst loss, timed
//! link-down windows) attaches per link or network-wide, and
//! [`Network::deliver`] returns a [`Verdict`] the transport must honour
//! instead of assuming every frame arrives. Without a plan installed,
//! `deliver` is bit-identical to [`Network::charge`].

mod clock;
mod engine;
mod fault;
mod idhash;
mod link;
mod network;
mod publish;

pub use clock::{TimeScale, VirtualClock};
pub use engine::{LinkUsage, TransportMode};
pub use fault::{FaultPlan, FaultStats, Verdict};
pub use idhash::{IdBuild, IdHasher, IdMap, IdSet};
pub use link::{Link, LinkPreset};
pub use network::{Host, HostId, Network};
pub use publish::Published;

#[cfg(test)]
mod tests;
