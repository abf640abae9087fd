//! Object and Implementation Repositories, and activation.
//!
//! On activation every object registers with an *Object Repository*, which is
//! searched when a client requests a connection. Each repository defines a
//! naming domain; configuring clients and servers with different repositories
//! splits the namespace (§2.2). Non-persistent servers register *how to start
//! them* with the *Implementation Repository*; an activating agent launches
//! the server on demand.

use crate::object::ObjectKey;
use pardis_audit::{lock_site, AuditRwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// The default repository namespace.
pub const DEFAULT_REPOSITORY: &str = "default";

/// Name → object key bindings, partitioned into namespaces.
pub(crate) struct ObjectRepository {
    spaces: AuditRwLock<HashMap<String, HashMap<String, ObjectKey>>>,
}

impl ObjectRepository {
    /// Empty repository set.
    pub(crate) fn new() -> Self {
        ObjectRepository {
            spaces: AuditRwLock::new(lock_site!("repository: object namespaces"), HashMap::new()),
        }
    }

    /// Register `name` in `namespace`, returning any displaced key.
    pub(crate) fn register(
        &self,
        namespace: &str,
        name: &str,
        key: ObjectKey,
    ) -> Option<ObjectKey> {
        self.spaces.write().entry(namespace.to_string()).or_default().insert(name.to_string(), key)
    }

    /// Look a name up.
    pub(crate) fn lookup(&self, namespace: &str, name: &str) -> Option<ObjectKey> {
        self.spaces.read().get(namespace)?.get(name).copied()
    }

    /// Remove a binding; returns the key if it existed.
    #[cfg(test)]
    pub(crate) fn unregister(&self, namespace: &str, name: &str) -> Option<ObjectKey> {
        self.spaces.write().get_mut(namespace)?.remove(name)
    }

    /// All names registered in a namespace, sorted.
    #[cfg(test)]
    pub(crate) fn list(&self, namespace: &str) -> Vec<String> {
        let mut names: Vec<String> = self
            .spaces
            .read()
            .get(namespace)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default();
        names.sort();
        names
    }

    /// All namespaces in use, sorted.
    #[cfg(test)]
    pub(crate) fn namespaces(&self) -> Vec<String> {
        let mut spaces: Vec<String> = self.spaces.read().keys().cloned().collect();
        spaces.sort();
        spaces
    }
}

/// A launcher: starts the server that implements an object (spawning its
/// computing threads) when an activating agent decides to.
pub(crate) type Launcher = Arc<dyn Fn() + Send + Sync>;

/// How an activation agent behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActivationMode {
    /// Launch registered implementations when a bind finds no object
    /// (the paper's "activating" configuration).
    #[default]
    Activating,
    /// Never launch; binds fail if the object is not already registered
    /// ("non-activating", to avoid interference with a running server).
    NonActivating,
}

struct ImplRecord {
    launcher: Launcher,
    launched: bool,
}

/// Registered server implementations, keyed by (namespace, object name).
pub(crate) struct ImplementationRepository {
    records: AuditRwLock<HashMap<(String, String), ImplRecord>>,
}

impl ImplementationRepository {
    /// Empty repository.
    pub(crate) fn new() -> Self {
        ImplementationRepository {
            records: AuditRwLock::new(lock_site!("repository: impl records"), HashMap::new()),
        }
    }

    /// Register how to activate the server providing `name`.
    #[cfg(test)]
    pub(crate) fn register(&self, namespace: &str, name: &str, launcher: Launcher) {
        self.records.write().insert(
            (namespace.to_string(), name.to_string()),
            ImplRecord { launcher, launched: false },
        );
    }

    /// Is an implementation registered?
    #[cfg(test)]
    pub(crate) fn has(&self, namespace: &str, name: &str) -> bool {
        self.records.read().contains_key(&(namespace.to_string(), name.to_string()))
    }

    /// Launch the implementation if present and not yet launched. Returns
    /// true if a launch happened now.
    pub(crate) fn launch_once(&self, namespace: &str, name: &str) -> bool {
        let launcher = {
            let mut records = self.records.write();
            match records.get_mut(&(namespace.to_string(), name.to_string())) {
                Some(rec) if !rec.launched => {
                    rec.launched = true;
                    rec.launcher.clone()
                }
                _ => return false,
            }
        };
        launcher();
        true
    }

    /// Forget launch state (lets a test or a restart re-activate).
    #[cfg(test)]
    pub(crate) fn reset_launch_state(&self, namespace: &str, name: &str) {
        if let Some(rec) = self.records.write().get_mut(&(namespace.to_string(), name.to_string()))
        {
            rec.launched = false;
        }
    }
}
