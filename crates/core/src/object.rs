//! Object identity: keys, references, kinds.

use crate::dist::Distribution;
use pardis_cdr::{CdrCodec, CdrError, Decoder, Encoder, TypeCode};
use pardis_netsim::HostId;
use std::collections::HashMap;

/// ORB-unique identifier of an activated object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectKey(pub u64);

/// Identifier of a server (a parallel program attached to the ORB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u64);

/// Identifier of a client group attached to the ORB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

/// Identifier of a transport endpoint (a server thread's request inbox or a
/// client thread's reply inbox).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub u64);

/// Identifier of one client↔object binding (created by `bind` /
/// `spmd_bind`). Request ids are sequenced per binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BindingId(pub u64);

/// Whether an object is implemented by all computing threads of its server
/// or by exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// An SPMD object: services execute collectively on every computing
    /// thread; operations may take distributed arguments.
    Spmd,
    /// A single object owned by one computing thread of its (possibly
    /// parallel) server. May not use distributed arguments.
    Single {
        /// The owning computing thread.
        thread: usize,
    },
}

/// An object reference — PARDIS's analogue of a CORBA IOR. Everything a
/// client needs to reach the object: identity, interface, location, shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectRef {
    /// The object's key.
    pub key: ObjectKey,
    /// Interface repository id (the IDL interface name).
    pub interface: String,
    /// The server implementing the object.
    pub server: ServerId,
    /// Host the server runs on.
    pub host: HostId,
    /// Number of computing threads of the server.
    pub nthreads: usize,
    /// SPMD or single.
    pub kind: ObjectKind,
}

impl ObjectRef {
    /// Stringified object reference (the classic `IOR:`-style form; ours is
    /// human-readable).
    pub fn stringify(&self) -> String {
        let kind = match self.kind {
            ObjectKind::Spmd => "spmd".to_string(),
            ObjectKind::Single { thread } => format!("single@{thread}"),
        };
        format!(
            "PARDIS:{}:{}:{}:{}:{}:{}",
            self.key.0,
            self.interface,
            self.server.0,
            self.host.raw(),
            self.nthreads,
            kind
        )
    }

    /// Parse a stringified reference back.
    pub fn destringify(s: &str) -> Option<ObjectRef> {
        let mut it = s.strip_prefix("PARDIS:")?.splitn(6, ':');
        let key = ObjectKey(it.next()?.parse().ok()?);
        let interface = it.next()?.to_string();
        let server = ServerId(it.next()?.parse().ok()?);
        let host = HostRaw(it.next()?.parse().ok()?).into_host();
        let nthreads = it.next()?.parse().ok()?;
        let kind = match it.next()? {
            "spmd" => ObjectKind::Spmd,
            other => {
                let t = other.strip_prefix("single@")?.parse().ok()?;
                ObjectKind::Single { thread: t }
            }
        };
        Some(ObjectRef { key, interface, server, host, nthreads, kind })
    }
}

// HostId has a private constructor in netsim; reconstruct through a helper
// that transmutes via the public raw value. netsim guarantees ids are dense
// u32s, so the value round-trips.
struct HostRaw(u32);
impl HostRaw {
    fn into_host(self) -> HostId {
        // SAFETY NOTE: not unsafe code — HostId is a plain wrapper; netsim
        // exposes `raw()` and we rebuild through the documented from_raw.
        HostId::from_raw(self.0)
    }
}

/// Per-operation distribution policy an SPMD servant publishes at
/// registration: the server-side distribution of each distributed `in`
/// argument (§3.2: "the server can set the distribution of any of the 'in'
/// arguments to its operations prior to object registration").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DistPolicy {
    /// Per operation name, the in-darg indices set, in ascending order,
    /// with their server-side distributions. Keyed by the name alone so a
    /// lookup by `&str` builds no key. Missing entries default to
    /// [`Distribution::Block`].
    in_dists: HashMap<String, Vec<(u32, Distribution)>>,
}

impl DistPolicy {
    /// Empty policy: everything defaults to BLOCK.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the server-side distribution of in-darg `arg` of `op`.
    pub fn set(&mut self, op: &str, arg: u32, dist: Distribution) -> &mut Self {
        let args = self.in_dists.entry(op.to_string()).or_default();
        match args.binary_search_by_key(&arg, |&(a, _)| a) {
            Ok(at) => args[at].1 = dist,
            Err(at) => args.insert(at, (arg, dist)),
        }
        self
    }

    /// Builder-style variant of [`DistPolicy::set`].
    pub fn with(mut self, op: &str, arg: u32, dist: Distribution) -> Self {
        self.set(op, arg, dist);
        self
    }

    /// The distribution for (op, arg), defaulting to BLOCK.
    pub(crate) fn get(&self, op: &str, arg: u32) -> &Distribution {
        const BLOCK: &Distribution = &Distribution::Block;
        let Some(args) = self.in_dists.get(op) else { return BLOCK };
        match args.binary_search_by_key(&arg, |&(a, _)| a) {
            Ok(at) => &args[at].1,
            Err(_) => BLOCK,
        }
    }
}

impl CdrCodec for ObjectRef {
    fn encode(&self, e: &mut Encoder) {
        e.write_string(&self.stringify());
    }
    fn decode(d: &mut Decoder) -> Result<Self, CdrError> {
        let s = d.read_string()?;
        ObjectRef::destringify(&s).ok_or(CdrError::TypeMismatch {
            expected: "stringified PARDIS object reference".into(),
            found: s,
        })
    }
    fn type_code() -> TypeCode {
        TypeCode::ObjRef { interface: "Object".into() }
    }
}

impl CdrCodec for ObjectKey {
    fn encode(&self, e: &mut Encoder) {
        e.write_u64(self.0);
    }
    fn decode(d: &mut Decoder) -> Result<Self, CdrError> {
        Ok(ObjectKey(d.read_u64()?))
    }
    fn type_code() -> TypeCode {
        TypeCode::ULongLong
    }
}

macro_rules! id_codec {
    ($ty:ident) => {
        impl CdrCodec for $ty {
            fn encode(&self, e: &mut Encoder) {
                e.write_u64(self.0);
            }
            fn decode(d: &mut Decoder) -> Result<Self, CdrError> {
                Ok($ty(d.read_u64()?))
            }
            fn type_code() -> TypeCode {
                TypeCode::ULongLong
            }
        }
    };
}

id_codec!(ServerId);
id_codec!(ClientId);
id_codec!(EndpointId);
id_codec!(BindingId);
