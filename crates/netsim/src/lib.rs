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
//! There is one clock, and it is modelled: a frame is released to its
//! destination on the sender's thread before the send returns, told its
//! modelled arrival, and nothing sleeps. Two things layer on that engine:
//!
//! * **Thread timelines**: each thread has a modelled time per host it runs
//!   on, kept for each network apart ([`Network::thread_time`]). Compute it
//!   charges
//!   ([`Network::charge_thread`]) advances it, taking in a frame raises it
//!   to the frame's arrival ([`Network::raise_thread_time`]), and its sends
//!   depart no earlier than it. The host keeps a send floor of its own,
//!   which pays every send's `t_o` and is raised by every arrival, so a
//!   thread that charges no compute never runs ahead of its host's floor.
//! * **Blocking senders** ([`Network::blocking`]): the paper's client that
//!   does not overlap. A blocking send is an engine send whose sender's
//!   floor and thread time then move to the frame's own arrival, so it
//!   never overlaps its own transfers.
//!
//! **Deterministic fault injection** works under both: a seeded
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
