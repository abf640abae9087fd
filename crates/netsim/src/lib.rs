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
//! Every frame crosses the network through one event-driven engine
//! ([`Network::transmit`]): the sender pays the link's software overhead,
//! the wire time lands on a per-link timeline, and the network's
//! [`VirtualClock`] reads the makespan — the latest arrival on any link.
//! Two things layer on that engine:
//!
//! * **Scaled real time**: a [`TimeScale`] above zero sleeps each modelled
//!   delay times the scale, so real computation runs at full speed while
//!   communication costs are injected at a rate that keeps a whole parameter
//!   sweep under a minute. [`TimeScale::off`] injects nothing and leaves pure
//!   virtual accounting, deterministic for tests.
//! * **Blocking senders** ([`Network::blocking`]): the paper's client that
//!   does not overlap. A blocking send is an engine send whose sender then
//!   waits for the frame's own arrival, so it never overlaps its own
//!   transfers.
//!
//! **Deterministic fault injection** works under either: a seeded
//! [`FaultPlan`] (drop probability, duplication, burst loss, timed
//! link-down windows) attaches per link or network-wide, and `transmit`
//! returns a [`Verdict`] the transport must honour instead of assuming
//! every frame arrives. Without a plan installed every frame is delivered.

mod clock;
mod engine;
mod fault;
mod idhash;
mod link;
mod network;
mod publish;

pub use clock::{TimeScale, VirtualClock};
pub use engine::LinkUsage;
pub use fault::{FaultPlan, FaultStats, Verdict};
pub use idhash::{IdBuild, IdHasher, IdMap, IdSet};
pub use link::{Link, LinkPreset};
pub use network::{Host, HostId, Network};
pub use publish::Published;

#[cfg(test)]
mod tests;
