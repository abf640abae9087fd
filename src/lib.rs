//! # PARDIS — a CORBA-based architecture for application-level parallel
//! # distributed computation, reproduced in Rust
//!
//! This crate is the facade of a full reproduction of *PARDIS* (Keahey &
//! Gannon, SC'97): a CORBA-style distributed-object system extended with
//! **SPMD objects** (objects implemented by all computing threads of a
//! data-parallel program), **distributed sequences** as argument types,
//! **non-blocking invocations with futures**, and **IDL pragma mappings**
//! onto the native containers of parallel packages (POOMA fields, HPC++
//! PSTL distributed vectors).
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`core`] | `pardis-core` | the ORB: objects, POA, binding, futures, distributed sequences, repositories |
//! | [`idl`] | `pardis-idl` | extended-IDL lexer/parser/semantic analysis |
//! | [`codegen`] | `pardis-codegen` | Rust stub/skeleton generation, `pardis-idlc` |
//! | [`cdr`] | `pardis-cdr` | CDR marshaling, TypeCode, Any |
//! | [`rts`] | `pardis-rts` | the run-time-system substrate (MPI-like world, Tulip one-sided) |
//! | [`netsim`] | `pardis-netsim` | the simulated testbed (hosts, ATM/Ethernet links) |
//! | [`obs`] | `pardis-obs` | tracing + metrics: per-thread event rings, Chrome-trace export |
//! | [`registry`] | `pardis-registry` | replicated naming/registry: TTL heartbeat liveness, object groups, binding policies, client-side failover |
//! | [`check`] | `pardis-check` | SPMD protocol analyzer: tag discipline, collective matching, deadlock detection |
//! | [`audit`] | `pardis-audit` | concurrency auditor: lock-order cycles, happens-before races, wire-call/hold/re-entrancy hazards (`PARDIS_AUDIT=1`) |
//! | [`pooma`] | `pooma-rs` | POOMA-like fields, guard cells, 9-point stencils |
//! | [`pstl`] | `pstl-rs` | HPC++-PSTL-like distributed vectors and algorithms |
//! | (dev) | `pardis-apps` | the paper's evaluation workloads (solvers, DNA search, pipeline) |
//! | [`generated`] | — | stubs compiled from `idl/*.idl` by `build.rs` at build time |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the one-paragraph version:
//!
//! 1. build a [`netsim::Network`] (or [`core::Orb::single_host`]),
//! 2. start a server: [`core::ServerGroup::create`], per computing thread
//!    [`core::ServerGroup::attach`] → activate servants → `impl_is_ready`,
//! 3. start a client: [`core::ClientGroup::create`] → `attach` → generated
//!    proxy `spmd_bind`/`bind` → invoke (blocking, `_nb` with futures, or
//!    `_single`).

pub use pardis_audit as audit;
pub use pardis_cdr as cdr;
pub use pardis_check as check;
pub use pardis_codegen as codegen;
pub use pardis_core as core;
pub use pardis_idl as idl;
pub use pardis_netsim as netsim;
pub use pardis_obs as obs;
pub use pardis_registry as registry;
pub use pardis_rts as rts;
pub use pooma_rs as pooma;
pub use pstl_rs as pstl;

pub mod ifr;

/// Stubs, skeletons and data types generated at build time from the IDL
/// files under `idl/` (the paper's §4 interfaces, verbatim).
pub mod generated {
    /// From `idl/solvers.idl` — figure 2's `direct` and `iterative` solver
    /// interfaces.
    #[allow(clippy::all, dead_code, unused_imports, unused_variables, unused_mut)]
    pub mod solvers {
        include!(concat!(env!("OUT_DIR"), "/solvers_gen.rs"));
    }
    /// From `idl/dna.idl` — figure 4's `dna_db` and `list_server`
    /// interfaces.
    #[allow(clippy::all, dead_code, unused_imports, unused_variables, unused_mut)]
    pub mod dna {
        include!(concat!(env!("OUT_DIR"), "/dna_gen.rs"));
    }
    /// From `idl/pipeline.idl` — figure 5's `visualizer` and
    /// `field_operations` interfaces, compiled with `-pooma -hpcxx`.
    #[allow(clippy::all, dead_code, unused_imports, unused_variables, unused_mut)]
    pub mod pipeline {
        include!(concat!(env!("OUT_DIR"), "/pipeline_gen.rs"));
    }
    /// From `idl/bank.idl` — attributes and typed exceptions (not from the
    /// paper; exercises the compiler's full CORBA surface).
    #[allow(clippy::all, dead_code, unused_imports, unused_variables, unused_mut)]
    pub mod bank {
        include!(concat!(env!("OUT_DIR"), "/bank_gen.rs"));
    }
    /// From `idl/prelude_names.idl` — types named `self` and after Rust
    /// prelude types, which the compiler renames (`Self_`, `Result_`, ...)
    /// so that the generated code compiles.
    #[allow(clippy::all, dead_code, unused_imports, unused_variables, unused_mut)]
    pub mod prelude_names {
        include!(concat!(env!("OUT_DIR"), "/prelude_names_gen.rs"));
    }
}

/// Everything a typical metaapplication needs, in one import.
pub mod prelude {
    pub use pardis_core::{
        ActivationMode, ClientGroup, ClientThread, DSeqFuture, DSequence, DistPolicy, Distribution,
        ObjectKind, ObjectRef, Orb, OrbError, OrbResult, PFuture, Poa, Proxy, Servant, ServantCtx,
        ServerGroup, ServerReply, ServerRequest, TransferStrategy,
    };
    pub use pardis_netsim::{Host, HostId, Link, LinkPreset, Network, TimeScale};
    pub use pardis_rts::{MpiRts, Rank, ReduceOp, Rts, World};
}
