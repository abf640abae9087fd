// Generated by pardis-idlc. Do not edit.

/// IDL typedef `row`.
pub type Row = Vec<f64>;
/// IDL typedef `matrix`.
pub type Matrix = ::pardis_core::DSequence<Vec<f64>>;
/// IDL typedef `vector`.
pub type Vector = ::pardis_core::DSequence<f64>;
/// Default server-side distribution policy declared in the IDL for
/// interface `direct` (pass to `Poa::activate_spmd`).
pub fn direct_default_policy() -> ::pardis_core::DistPolicy {
    let mut policy = ::pardis_core::DistPolicy::new();
    policy
}
/// Client proxy for IDL interface `direct`.
pub struct DirectProxy {
    inner: ::pardis_core::Proxy,
}
impl DirectProxy {
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
    pub fn solve(&self, a: &::pardis_core::DSequence<Vec<f64>>, b: &::pardis_core::DSequence<f64>, x_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<(::pardis_core::DSequence<f64>,)> {
        let call = self.inner.call("solve").dseq_in(a).dseq_in(b).dseq_out(x_dist);
        let reply = call.invoke()?;
        Ok((reply.dseq::<f64>(0usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn solve_nb(&self, a: &::pardis_core::DSequence<Vec<f64>>, b: &::pardis_core::DSequence<f64>, x_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<DirectSolveFutures> {
        let call = self.inner.call("solve").dseq_in(a).dseq_in(b).dseq_out(x_dist);
        let handle = call.invoke_nb()?;
        Ok(DirectSolveFutures { x: handle.dseq_future::<f64>(0usize), handle })
    }
    /// Blocking invocation, non-distributed stub: whole sequences, for single clients (§3.1).
    pub fn solve_single(&self, a: Vec<Vec<f64>>, b: Vec<f64>) -> ::pardis_core::OrbResult<(Vec<f64>,)> {
        let call = self.inner.call("solve").dseq_in_full(a).dseq_in_full(b).dseq_out(::pardis_core::Distribution::Concentrated(0usize));
        let reply = call.invoke()?;
        Ok((reply.dseq::<f64>(0usize)?.take_local(),))
    }
}
/// Futures of `Direct::solve`; all resolve together when the server completes.
pub struct DirectSolveFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
    /// Future of distributed out argument `X`.
    pub x: ::pardis_core::DSeqFuture<f64>,
}
impl DirectSolveFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Implementation trait for IDL interface `direct` — implement this and
/// wrap it in [`DirectSkel`] to activate.
pub trait DirectImpl: Send + Sync + 'static {
    /// IDL operation `solve`.
    fn solve(&self, ctx: &::pardis_core::ServantCtx, a: ::pardis_core::DSequence<Vec<f64>>, b: ::pardis_core::DSequence<f64>) -> Result<(::pardis_core::DSequence<f64>,), String>;
}
/// Servant adapter: decodes requests and calls a [`DirectImpl`].
pub struct DirectSkel<T: DirectImpl>(pub T);
impl<T: DirectImpl> ::pardis_core::Servant for DirectSkel<T> {
    fn interface(&self) -> &str {
        "direct"
    }
    fn dispatch(&self, req: ::pardis_core::ServerRequest<'_>) -> Result<::pardis_core::ServerReply, String> {
        match req.op {
            "solve" => {
                let a: ::pardis_core::DSequence<Vec<f64>> = req.dseq(0usize).map_err(|e| e.to_string())?;
                let b: ::pardis_core::DSequence<f64> = req.dseq(1usize).map_err(|e| e.to_string())?;
                let out = self.0.solve(req.ctx, a, b)?;
                let mut rep = ::pardis_core::ServerReply::new();
                rep.push_dseq(out.0);
                Ok(rep)
            }
            other => Err(format!("interface direct has no operation {other:?}")),
        }
    }
}
/// Default server-side distribution policy declared in the IDL for
/// interface `iterative` (pass to `Poa::activate_spmd`).
pub fn iterative_default_policy() -> ::pardis_core::DistPolicy {
    let mut policy = ::pardis_core::DistPolicy::new();
    policy
}
/// Client proxy for IDL interface `iterative`.
pub struct IterativeProxy {
    inner: ::pardis_core::Proxy,
}
impl IterativeProxy {
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
    pub fn solve(&self, tol: &f64, a: &::pardis_core::DSequence<Vec<f64>>, b: &::pardis_core::DSequence<f64>, x_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<(::pardis_core::DSequence<f64>,)> {
        let call = self.inner.call("solve").arg(tol).dseq_in(a).dseq_in(b).dseq_out(x_dist);
        let reply = call.invoke()?;
        Ok((reply.dseq::<f64>(0usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn solve_nb(&self, tol: &f64, a: &::pardis_core::DSequence<Vec<f64>>, b: &::pardis_core::DSequence<f64>, x_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<IterativeSolveFutures> {
        let call = self.inner.call("solve").arg(tol).dseq_in(a).dseq_in(b).dseq_out(x_dist);
        let handle = call.invoke_nb()?;
        Ok(IterativeSolveFutures { x: handle.dseq_future::<f64>(0usize), handle })
    }
    /// Blocking invocation, non-distributed stub: whole sequences, for single clients (§3.1).
    pub fn solve_single(&self, tol: &f64, a: Vec<Vec<f64>>, b: Vec<f64>) -> ::pardis_core::OrbResult<(Vec<f64>,)> {
        let call = self.inner.call("solve").arg(tol).dseq_in_full(a).dseq_in_full(b).dseq_out(::pardis_core::Distribution::Concentrated(0usize));
        let reply = call.invoke()?;
        Ok((reply.dseq::<f64>(0usize)?.take_local(),))
    }
}
/// Futures of `Iterative::solve`; all resolve together when the server completes.
pub struct IterativeSolveFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
    /// Future of distributed out argument `X`.
    pub x: ::pardis_core::DSeqFuture<f64>,
}
impl IterativeSolveFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Implementation trait for IDL interface `iterative` — implement this and
/// wrap it in [`IterativeSkel`] to activate.
pub trait IterativeImpl: Send + Sync + 'static {
    /// IDL operation `solve`.
    fn solve(&self, ctx: &::pardis_core::ServantCtx, tol: f64, a: ::pardis_core::DSequence<Vec<f64>>, b: ::pardis_core::DSequence<f64>) -> Result<(::pardis_core::DSequence<f64>,), String>;
}
/// Servant adapter: decodes requests and calls a [`IterativeImpl`].
pub struct IterativeSkel<T: IterativeImpl>(pub T);
impl<T: IterativeImpl> ::pardis_core::Servant for IterativeSkel<T> {
    fn interface(&self) -> &str {
        "iterative"
    }
    fn dispatch(&self, req: ::pardis_core::ServerRequest<'_>) -> Result<::pardis_core::ServerReply, String> {
        match req.op {
            "solve" => {
                let tol: f64 = req.scalar(0usize).map_err(|e| e.to_string())?;
                let a: ::pardis_core::DSequence<Vec<f64>> = req.dseq(0usize).map_err(|e| e.to_string())?;
                let b: ::pardis_core::DSequence<f64> = req.dseq(1usize).map_err(|e| e.to_string())?;
                let out = self.0.solve(req.ctx, tol, a, b)?;
                let mut rep = ::pardis_core::ServerReply::new();
                rep.push_dseq(out.0);
                Ok(rep)
            }
            other => Err(format!("interface iterative has no operation {other:?}")),
        }
    }
}
