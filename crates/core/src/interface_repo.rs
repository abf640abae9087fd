//! The Interface Repository: runtime descriptions of IDL interfaces.
//!
//! CORBA pairs the dynamic invocation interface with an *Interface
//! Repository* so a client that has no compiled stubs can still discover
//! what an object understands. PARDIS's repositories section (§2.2) covers
//! naming and activation; this module adds the type half: interface ids,
//! operation signatures, parameter modes and [`TypeCode`]s, inheritance.
//!
//! Definitions are usually loaded from a compiled IDL model (the `pardis`
//! facade's `ifr::load_model`), but can be registered by hand.

use pardis_audit::{lock_site, AuditRwLock};
use pardis_cdr::TypeCode;
use std::collections::HashMap;

/// Parameter passing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamMode {
    /// Client to server.
    In,
    /// Server to client.
    Out,
    /// Both directions.
    InOut,
}

/// One parameter of an operation signature.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSig {
    /// Parameter name.
    pub name: String,
    /// Mode.
    pub mode: ParamMode,
    /// Runtime type.
    pub tc: TypeCode,
}

/// One operation signature.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSig {
    /// Operation name (the wire name).
    pub name: String,
    /// Oneway (no reply)?
    pub oneway: bool,
    /// Return type ([`TypeCode::Void`] for `void`).
    pub ret: TypeCode,
    /// Parameters in declaration order.
    pub params: Vec<ParamSig>,
    /// Repository ids of the exceptions this operation may raise.
    pub raises: Vec<String>,
}

impl OpSig {
    /// Does any parameter use a distributed type?
    pub fn has_distributed(&self) -> bool {
        self.params.iter().any(|p| p.tc.is_distributed())
    }
}

/// A registered interface.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InterfaceDef {
    /// Repository id (the flat IDL name, e.g. `math::adder`).
    pub id: String,
    /// Direct base interface ids.
    pub bases: Vec<String>,
    /// Own operations in declaration order.
    pub ops: Vec<OpSig>,
}

/// Runtime interface descriptions, keyed by repository id.
pub struct InterfaceRepository {
    defs: AuditRwLock<HashMap<String, InterfaceDef>>,
}

impl Default for InterfaceRepository {
    fn default() -> Self {
        Self::new()
    }
}

impl InterfaceRepository {
    /// Empty repository.
    pub(crate) fn new() -> Self {
        InterfaceRepository {
            defs: AuditRwLock::new(lock_site!("interface-repo: definitions"), HashMap::new()),
        }
    }

    /// Register (or replace) an interface definition.
    pub fn register(&self, def: InterfaceDef) {
        self.defs.write().insert(def.id.clone(), def);
    }

    /// Fetch a definition.
    pub(crate) fn lookup(&self, id: &str) -> Option<InterfaceDef> {
        self.defs.read().get(id).cloned()
    }

    /// Is the interface known?
    #[cfg(test)]
    pub(crate) fn has(&self, id: &str) -> bool {
        self.defs.read().contains_key(id)
    }

    /// All registered ids, sorted.
    pub fn ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.defs.read().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// The full operation set of an interface, inherited ops first
    /// (base declaration order), like the generated proxies offer.
    pub fn all_ops(&self, id: &str) -> Vec<OpSig> {
        let mut out = Vec::new();
        if let Some(def) = self.lookup(id) {
            for base in &def.bases {
                out.extend(self.all_ops(base));
            }
            out.extend(def.ops);
        }
        out
    }

    /// Find one operation's signature (searching bases too).
    pub fn find_op(&self, id: &str, op: &str) -> Option<OpSig> {
        self.all_ops(id).into_iter().find(|o| o.name == op)
    }

    /// Check a dynamic invocation's in-arguments against the signature:
    /// right operation, right arity, right scalar [`TypeCode`]s. Returns the
    /// signature on success so the caller can decode the outs.
    pub fn check_call(&self, id: &str, op: &str, in_args: &[TypeCode]) -> Result<OpSig, String> {
        let sig = self
            .find_op(id, op)
            .ok_or_else(|| format!("interface {id:?} has no operation {op:?}"))?;
        let expected: Vec<&TypeCode> = sig
            .params
            .iter()
            .filter(|p| p.mode != ParamMode::Out && !p.tc.is_distributed())
            .map(|p| &p.tc)
            .collect();
        if expected.len() != in_args.len() {
            return Err(format!(
                "operation {op:?} takes {} scalar in-arguments, got {}",
                expected.len(),
                in_args.len()
            ));
        }
        for (i, (want, got)) in expected.iter().zip(in_args).enumerate() {
            if *want != got {
                return Err(format!("argument {i} of {op:?} has type {got}, expected {want}"));
            }
        }
        Ok(sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InterfaceRepository {
        let repo = InterfaceRepository::new();
        repo.register(InterfaceDef {
            id: "base".into(),
            bases: vec![],
            ops: vec![OpSig {
                name: "ping".into(),
                oneway: false,
                ret: TypeCode::Void,
                params: vec![],
                raises: vec![],
            }],
        });
        repo.register(InterfaceDef {
            id: "calc".into(),
            bases: vec!["base".into()],
            ops: vec![OpSig {
                name: "add".into(),
                oneway: false,
                ret: TypeCode::Long,
                params: vec![
                    ParamSig { name: "a".into(), mode: ParamMode::In, tc: TypeCode::Long },
                    ParamSig { name: "b".into(), mode: ParamMode::In, tc: TypeCode::Long },
                    ParamSig { name: "r".into(), mode: ParamMode::Out, tc: TypeCode::Double },
                ],
                raises: vec![],
            }],
        });
        repo
    }

    #[test]
    fn register_lookup_ids() {
        let repo = sample();
        assert!(repo.has("calc"));
        assert!(!repo.has("ghost"));
        assert_eq!(repo.ids(), vec!["base".to_string(), "calc".to_string()]);
        assert_eq!(repo.lookup("calc").unwrap().bases, vec!["base".to_string()]);
    }

    #[test]
    fn all_ops_flattens_inheritance_base_first() {
        let repo = sample();
        let names: Vec<String> = repo.all_ops("calc").into_iter().map(|o| o.name).collect();
        assert_eq!(names, vec!["ping".to_string(), "add".to_string()]);
        assert!(repo.find_op("calc", "ping").is_some(), "inherited op found");
    }

    #[test]
    fn check_call_validates_scalars() {
        let repo = sample();
        assert!(repo.check_call("calc", "add", &[TypeCode::Long, TypeCode::Long]).is_ok());
        let err = repo.check_call("calc", "add", &[TypeCode::Long]).unwrap_err();
        assert!(err.contains("takes 2"), "{err}");
        let err = repo.check_call("calc", "add", &[TypeCode::Long, TypeCode::Double]).unwrap_err();
        assert!(err.contains("argument 1"), "{err}");
        let err = repo.check_call("calc", "nope", &[]).unwrap_err();
        assert!(err.contains("no operation"), "{err}");
    }

    #[test]
    fn out_params_do_not_count_as_in_arguments() {
        let repo = sample();
        // `r` is out-only; the two longs are the whole in-signature.
        let sig = repo.check_call("calc", "add", &[TypeCode::Long, TypeCode::Long]).unwrap();
        assert_eq!(sig.ret, TypeCode::Long);
        assert_eq!(sig.params.len(), 3);
    }
}
