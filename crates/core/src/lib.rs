//! # pardis-core — the PARDIS Object Request Broker
//!
//! A from-scratch Rust reproduction of PARDIS (Keahey & Gannon, SC'97): a
//! CORBA-style distributed object system extended for data-parallel
//! computation.
//!
//! The pieces, in paper order:
//!
//! * **Object model** (§2.1) — [`ObjectRef`], [`ObjectKind`]: *SPMD objects*
//!   are implemented by the collaboration of all computing threads of a
//!   parallel server and may take distributed arguments; *single objects*
//!   belong to one thread.
//! * **The ORB** (§2.2) — [`Orb`]: endpoint registry and request routing
//!   over a simulated network ([`pardis_netsim`]), object/implementation
//!   repositories, activation agents, configuration (transfer strategy,
//!   local bypass).
//! * **Server side** (§3.1, §3.3) — [`ServerGroup`] / [`Poa`]:
//!   `activate_spmd` (collective), `activate_single`, `impl_is_ready`
//!   (surrender control), `process_requests` (let the ORB in
//!   mid-computation) and `wait_for_work` (park until there is work).
//! * **Client side** (§3.1) — [`ClientGroup`] / [`ClientThread`]:
//!   `spmd_bind` (the parallel client as one entity) and `bind` (one binding
//!   per thread); [`Proxy`] / [`CallBuilder`] for invocations.
//! * **Distributed arguments** (§3.2) — [`DSequence`] with
//!   [`Distribution`] templates, redistribution, and planned thread-to-thread
//!   transfer ([`strided::plan_transfer`]).
//! * **Futures** (§3.3) — [`PFuture`], [`DSeqFuture`]: non-blocking
//!   invocations resolve all their futures at once.
//!
//! ## A complete round trip
//!
//! ```
//! use pardis_core::*;
//! use std::sync::Arc;
//!
//! struct Echo;
//! impl Servant for Echo {
//!     fn interface(&self) -> &str { "echo" }
//!     fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
//!         let text: String = req.scalar(0).map_err(|e| e.to_string())?;
//!         let mut rep = ServerReply::new();
//!         rep.push_scalar(&format!("echo: {text}"));
//!         Ok(rep)
//!     }
//! }
//!
//! let (orb, host) = Orb::single_host();
//! let group = ServerGroup::create(&orb, "echo-server", host, 1);
//! let g2 = group.clone();
//! let server = std::thread::spawn(move || {
//!     let mut poa = g2.attach(0, None);
//!     poa.activate_single("echo1", Arc::new(Echo));
//!     poa.impl_is_ready();
//! });
//!
//! let client = ClientGroup::create(&orb, host, 1).attach(0, None);
//! let proxy = client.bind("echo1").unwrap();
//! let reply = proxy.call("shout").arg(&"hi".to_string()).invoke().unwrap();
//! assert_eq!(reply.scalar::<String>(0).unwrap(), "echo: hi");
//!
//! group.shutdown();
//! server.join().unwrap();
//! ```

#![warn(unreachable_pub)]

pub mod dist;
pub mod protocol;

mod client;
mod dseq;
mod error;
mod future;
mod interface_repo;
mod object;
mod obs;
mod orb;
mod poa;
mod repository;
mod servant;
mod strided;

pub use client::{
    CallBuilder, ClientGroup, ClientThread, CommThread, InvocationHandle, Proxy, ReplyData,
};
pub use dist::{Distribution, Run};
pub use dseq::DSequence;
pub use error::{OrbError, OrbResult};
pub use future::{DSeqFuture, PFuture};
pub use interface_repo::{InterfaceDef, InterfaceRepository, OpSig, ParamMode, ParamSig};
pub use object::{
    BindingId, ClientId, DistPolicy, EndpointId, ObjectKey, ObjectKind, ObjectRef, ServerId,
};
pub use obs::{finish_env_trace, quiesce_endpoints, trace_from_env, TraceReport, TraceSession};
pub use orb::{Orb, OrbConfig, TransferStrategy};
pub use poa::{DeferredCall, Poa, ServerGroup};
pub use repository::{ActivationMode, DEFAULT_REPOSITORY};
pub use servant::{
    DInLocal, DOutArg, DispatchResult, Raised, Servant, ServantCtx, ServerReply, ServerRequest,
};
pub use strided::{plan_transfer, PlanPiece, Strided};

/// The concurrency auditor the ORB core is instrumented with — re-exported
/// so embedders can flip the gate, pull an [`pardis_audit::AuditReport`]
/// or wrap their own locks with the same machinery (`PARDIS_AUDIT=1`
/// enables it process-wide).
pub use pardis_audit as audit;

#[cfg(test)]
mod tests;
