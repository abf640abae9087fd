// Generated by pardis-idlc. Do not edit.

/// IDL constant `N`.
pub const N: i32 = 128;
/// IDL typedef `field`.
pub type Field = ::pardis_core::DSequence<f64>;
/// Default server-side distribution policy declared in the IDL for
/// interface `visualizer` (pass to `Poa::activate_spmd`).
pub fn visualizer_default_policy() -> ::pardis_core::DistPolicy {
    let mut policy = ::pardis_core::DistPolicy::new();
    policy.set("show", 0u32, ::pardis_core::Distribution::Block);
    policy
}
/// Client proxy for IDL interface `visualizer`.
pub struct VisualizerProxy {
    inner: ::pardis_core::Proxy,
}
impl VisualizerProxy {
    /// Collective bind: the parallel client acts as one entity.
    pub fn spmd_bind(client: &::pardis_core::ClientThread, name: &str) -> ::pardis_core::OrbResult<Self> {
        Ok(Self { inner: client.spmd_bind(name)? })
    }
    /// Per-thread bind.
    pub fn bind(client: &::pardis_core::ClientThread, name: &str) -> ::pardis_core::OrbResult<Self> {
        Ok(Self { inner: client.bind(name)? })
    }
    /// Wrap an existing binding (narrowing).
    pub fn from_proxy(inner: ::pardis_core::Proxy) -> Self {
        Self { inner }
    }
    /// The untyped binding.
    pub fn proxy(&self) -> &::pardis_core::Proxy {
        &self.inner
    }
    /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
    pub fn show(&self, myfield: &::pardis_core::DSequence<f64>) -> ::pardis_core::OrbResult<()> {
        let call = self.inner.call("show").dseq_in(myfield);
        let reply = call.invoke()?;
        let _ = reply;
        Ok(())
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn show_nb(&self, myfield: &::pardis_core::DSequence<f64>) -> ::pardis_core::OrbResult<VisualizerShowFutures> {
        let call = self.inner.call("show").dseq_in(myfield);
        let handle = call.invoke_nb()?;
        Ok(VisualizerShowFutures { handle })
    }
    /// Blocking invocation, non-distributed stub: whole sequences, for single clients (§3.1).
    pub fn show_single(&self, myfield: Vec<f64>) -> ::pardis_core::OrbResult<()> {
        let call = self.inner.call("show").dseq_in_full(myfield);
        let reply = call.invoke()?;
        let _ = reply;
        Ok(())
    }
    /// Blocking invocation marshaling directly from POOMA fields (`-pooma`).
    pub fn show_pooma(&self, myfield: &::pooma_rs::Field2D) -> ::pardis_core::OrbResult<()> {
        let myfield_ds = myfield.to_dseq();
        let call = self.inner.call("show").dseq_in(&myfield_ds);
        let reply = call.invoke()?;
        let _ = reply;
        Ok(())
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn show_pooma_nb(&self, myfield: &::pooma_rs::Field2D) -> ::pardis_core::OrbResult<VisualizerShowFutures> {
        let myfield_ds = myfield.to_dseq();
        let call = self.inner.call("show").dseq_in(&myfield_ds);
        let handle = call.invoke_nb()?;
        Ok(VisualizerShowFutures { handle })
    }
    /// Blocking invocation marshaling directly from HPC++ PSTL distributed vectors (`-hpcxx`).
    pub fn show_hpcxx(&self, myfield: &::pstl_rs::DistVector<f64>) -> ::pardis_core::OrbResult<()> {
        let myfield_ds = myfield.to_dseq();
        let call = self.inner.call("show").dseq_in(&myfield_ds);
        let reply = call.invoke()?;
        let _ = reply;
        Ok(())
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn show_hpcxx_nb(&self, myfield: &::pstl_rs::DistVector<f64>) -> ::pardis_core::OrbResult<VisualizerShowFutures> {
        let myfield_ds = myfield.to_dseq();
        let call = self.inner.call("show").dseq_in(&myfield_ds);
        let handle = call.invoke_nb()?;
        Ok(VisualizerShowFutures { handle })
    }
}
/// Futures of `Visualizer::show`; all resolve together when the server completes.
pub struct VisualizerShowFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
}
impl VisualizerShowFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Implementation trait for IDL interface `visualizer` — implement this and
/// wrap it in [`VisualizerSkel`] to activate.
pub trait VisualizerImpl: Send + Sync + 'static {
    /// IDL operation `show`.
    fn show(&self, ctx: &::pardis_core::ServantCtx, myfield: ::pardis_core::DSequence<f64>) -> Result<(), String>;
}
/// Servant adapter: decodes requests and calls a [`VisualizerImpl`].
pub struct VisualizerSkel<T: VisualizerImpl>(pub T);
impl<T: VisualizerImpl> ::pardis_core::Servant for VisualizerSkel<T> {
    fn interface(&self) -> &str {
        "visualizer"
    }
    fn dispatch(&self, req: ::pardis_core::ServerRequest<'_>) -> Result<::pardis_core::ServerReply, String> {
        match req.op {
            "show" => {
                let myfield: ::pardis_core::DSequence<f64> = req.dseq(0usize).map_err(|e| e.to_string())?;
                let out = self.0.show(req.ctx, myfield)?;
                let mut rep = ::pardis_core::ServerReply::new();
                let _ = out;
                Ok(rep)
            }
            other => Err(format!("interface visualizer has no operation {other:?}")),
        }
    }
}
/// Default server-side distribution policy declared in the IDL for
/// interface `field_operations` (pass to `Poa::activate_spmd`).
pub fn field_operations_default_policy() -> ::pardis_core::DistPolicy {
    let mut policy = ::pardis_core::DistPolicy::new();
    policy.set("gradient", 0u32, ::pardis_core::Distribution::Block);
    policy
}
/// Client proxy for IDL interface `field_operations`.
pub struct FieldOperationsProxy {
    inner: ::pardis_core::Proxy,
}
impl FieldOperationsProxy {
    /// Collective bind: the parallel client acts as one entity.
    pub fn spmd_bind(client: &::pardis_core::ClientThread, name: &str) -> ::pardis_core::OrbResult<Self> {
        Ok(Self { inner: client.spmd_bind(name)? })
    }
    /// Per-thread bind.
    pub fn bind(client: &::pardis_core::ClientThread, name: &str) -> ::pardis_core::OrbResult<Self> {
        Ok(Self { inner: client.bind(name)? })
    }
    /// Wrap an existing binding (narrowing).
    pub fn from_proxy(inner: ::pardis_core::Proxy) -> Self {
        Self { inner }
    }
    /// The untyped binding.
    pub fn proxy(&self) -> &::pardis_core::Proxy {
        &self.inner
    }
    /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
    pub fn gradient(&self, myfield: &::pardis_core::DSequence<f64>) -> ::pardis_core::OrbResult<()> {
        let call = self.inner.call("gradient").dseq_in(myfield);
        let reply = call.invoke()?;
        let _ = reply;
        Ok(())
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn gradient_nb(&self, myfield: &::pardis_core::DSequence<f64>) -> ::pardis_core::OrbResult<FieldOperationsGradientFutures> {
        let call = self.inner.call("gradient").dseq_in(myfield);
        let handle = call.invoke_nb()?;
        Ok(FieldOperationsGradientFutures { handle })
    }
    /// Blocking invocation, non-distributed stub: whole sequences, for single clients (§3.1).
    pub fn gradient_single(&self, myfield: Vec<f64>) -> ::pardis_core::OrbResult<()> {
        let call = self.inner.call("gradient").dseq_in_full(myfield);
        let reply = call.invoke()?;
        let _ = reply;
        Ok(())
    }
    /// Blocking invocation marshaling directly from POOMA fields (`-pooma`).
    pub fn gradient_pooma(&self, myfield: &::pooma_rs::Field2D) -> ::pardis_core::OrbResult<()> {
        let myfield_ds = myfield.to_dseq();
        let call = self.inner.call("gradient").dseq_in(&myfield_ds);
        let reply = call.invoke()?;
        let _ = reply;
        Ok(())
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn gradient_pooma_nb(&self, myfield: &::pooma_rs::Field2D) -> ::pardis_core::OrbResult<FieldOperationsGradientFutures> {
        let myfield_ds = myfield.to_dseq();
        let call = self.inner.call("gradient").dseq_in(&myfield_ds);
        let handle = call.invoke_nb()?;
        Ok(FieldOperationsGradientFutures { handle })
    }
    /// Blocking invocation marshaling directly from HPC++ PSTL distributed vectors (`-hpcxx`).
    pub fn gradient_hpcxx(&self, myfield: &::pstl_rs::DistVector<f64>) -> ::pardis_core::OrbResult<()> {
        let myfield_ds = myfield.to_dseq();
        let call = self.inner.call("gradient").dseq_in(&myfield_ds);
        let reply = call.invoke()?;
        let _ = reply;
        Ok(())
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn gradient_hpcxx_nb(&self, myfield: &::pstl_rs::DistVector<f64>) -> ::pardis_core::OrbResult<FieldOperationsGradientFutures> {
        let myfield_ds = myfield.to_dseq();
        let call = self.inner.call("gradient").dseq_in(&myfield_ds);
        let handle = call.invoke_nb()?;
        Ok(FieldOperationsGradientFutures { handle })
    }
}
/// Futures of `FieldOperations::gradient`; all resolve together when the server completes.
pub struct FieldOperationsGradientFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
}
impl FieldOperationsGradientFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Implementation trait for IDL interface `field_operations` — implement this and
/// wrap it in [`FieldOperationsSkel`] to activate.
pub trait FieldOperationsImpl: Send + Sync + 'static {
    /// IDL operation `gradient`.
    fn gradient(&self, ctx: &::pardis_core::ServantCtx, myfield: ::pardis_core::DSequence<f64>) -> Result<(), String>;
}
/// Servant adapter: decodes requests and calls a [`FieldOperationsImpl`].
pub struct FieldOperationsSkel<T: FieldOperationsImpl>(pub T);
impl<T: FieldOperationsImpl> ::pardis_core::Servant for FieldOperationsSkel<T> {
    fn interface(&self) -> &str {
        "field_operations"
    }
    fn dispatch(&self, req: ::pardis_core::ServerRequest<'_>) -> Result<::pardis_core::ServerReply, String> {
        match req.op {
            "gradient" => {
                let myfield: ::pardis_core::DSequence<f64> = req.dseq(0usize).map_err(|e| e.to_string())?;
                let out = self.0.gradient(req.ctx, myfield)?;
                let mut rep = ::pardis_core::ServerReply::new();
                let _ = out;
                Ok(rep)
            }
            other => Err(format!("interface field_operations has no operation {other:?}")),
        }
    }
}
