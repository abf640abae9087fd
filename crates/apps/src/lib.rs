//! pardis-apps — the evaluation workloads of the PARDIS paper.
//!
//! Three metaapplications, one per figure of §4:
//!
//! * [`solvers`] — §4.1 / figure 2: a direct (Gaussian elimination) and an
//!   iterative (Jacobi) linear-system solver exposed as SPMD objects; a
//!   parallel client solves the same system with both and compares.
//! * [`dna`] — §4.2 / figure 4: a DNA database searched in parallel by an
//!   SPMD object, with five single list-server objects (exact match plus
//!   the four edit-distance derivative classes) distributed over the
//!   computing threads of the same parallel server.
//! * [`pipeline`] — §4.3 / figure 5: a POOMA diffusion application
//!   pipelining its field into an HPC++ PSTL gradient application, both
//!   feeding visualizers, built on the compiler's pragma mappings.
//!
//! Each module contains the numerical/text kernels, the servants
//! implementing the build-time-generated skeletons (`pardis::generated`),
//! launchers that spawn complete parallel servers, and client drivers used
//! by the examples, integration tests, and the figure-reproduction
//! benches.

pub mod dna;
pub mod figures;
pub mod pipeline;
pub mod solvers;

use pardis::core::ServerGroup;
use pardis::netsim::{HostId, Network};
use pardis::rts::Rts;
use std::thread::JoinHandle;

/// Start a measured run on every client thread of `rts` on `host` at one
/// modelled instant, returned (collective): once all are ready, the moment
/// everything sent before has landed (the makespan). The run takes the
/// latest [`Network::thread_time`] its threads read at their last
/// completion, minus it.
pub fn start_case(rts: &dyn Rts, net: &Network, host: HostId) -> f64 {
    rts.barrier();
    let start = net.makespan();
    // Nobody sends until every thread has read the same instant.
    rts.barrier();
    net.raise_thread_time(host, start);
    start
}

/// Run `launch` on rank `me` of `rts` in rank order (collective), so a
/// parallel client's frames take the send floor and links in one order.
pub(crate) fn in_turn<R>(rts: &dyn Rts, me: usize, launch: impl FnOnce() -> R) -> R {
    let (mut launch, mut out) = (Some(launch), None);
    for rank in 0..rts.size() {
        if rank == me {
            out = launch.take().map(|launch| launch());
        }
        rts.barrier();
    }
    out.expect("every rank takes its turn")
}

/// A running parallel server: the ORB-side group handle plus the OS thread
/// that hosts its computing threads.
pub struct ServerHandle {
    /// The ORB-side handle (bindable objects live until shutdown).
    pub group: ServerGroup,
    join: JoinHandle<()>,
}

impl ServerHandle {
    /// Package a group and its host thread.
    pub fn new(group: ServerGroup, join: JoinHandle<()>) -> Self {
        ServerHandle { group, join }
    }

    /// Ask the server to exit and wait for its threads.
    pub fn shutdown(self) {
        self.group.shutdown();
        self.join.join().expect("server thread panicked");
    }
}
