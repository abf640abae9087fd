// Generated by pardis-idlc. Do not edit.

/// IDL constant `MAX_PROBES`.
pub const MAX_PROBES: i16 = 4;
/// IDL constant `SEED`.
pub const SEED: u64 = 7;
/// IDL typedef `triple`.
pub type Triple = [f64; 3usize];
/// IDL typedef `grid`.
pub type Grid = [[i32; 2usize]; 2usize];
/// IDL typedef `field`.
pub type Field = ::pardis_core::DSequence<f64>;
/// IDL typedef `counts`.
pub type Counts = ::pardis_core::DSequence<i32>;
/// IDL typedef `samples`.
pub type Samples = ::pardis_core::DSequence<f64>;
/// Default server-side distribution policy declared in the IDL for
/// interface `smoother` (pass to `Poa::activate_spmd`).
pub fn smoother_default_policy() -> ::pardis_core::DistPolicy {
    let mut policy = ::pardis_core::DistPolicy::new();
    policy.set("smooth", 0u32, ::pardis_core::Distribution::Cyclic);
    policy.set("smooth", 1u32, ::pardis_core::Distribution::Concentrated(1));
    policy.set("norm", 0u32, ::pardis_core::Distribution::BlockCyclic(4));
    policy.set("discard", 0u32, ::pardis_core::Distribution::Cyclic);
    policy.set("discard", 1u32, ::pardis_core::Distribution::Concentrated(1));
    policy
}
/// Client proxy for IDL interface `smoother`.
pub struct SmootherProxy {
    inner: ::pardis_core::Proxy,
}
impl SmootherProxy {
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
    pub fn smooth(&self, f: &::pardis_core::DSequence<f64>, s: &::pardis_core::DSequence<f64>, g_dist: ::pardis_core::Distribution, c_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<(::pardis_core::DSequence<f64>, ::pardis_core::DSequence<i32>,)> {
        let call = self.inner.call("smooth").dseq_in(f).dseq_in(s).dseq_out(g_dist).dseq_out(c_dist);
        let reply = call.invoke()?;
        Ok((reply.dseq::<f64>(0usize)?, reply.dseq::<i32>(1usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn smooth_nb(&self, f: &::pardis_core::DSequence<f64>, s: &::pardis_core::DSequence<f64>, g_dist: ::pardis_core::Distribution, c_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<SmootherSmoothFutures> {
        let call = self.inner.call("smooth").dseq_in(f).dseq_in(s).dseq_out(g_dist).dseq_out(c_dist);
        let handle = call.invoke_nb()?;
        Ok(SmootherSmoothFutures { g: handle.dseq_future::<f64>(0usize), c: handle.dseq_future::<i32>(1usize), handle })
    }
    /// Blocking invocation, non-distributed stub: whole sequences, for single clients (§3.1).
    pub fn smooth_single(&self, f: Vec<f64>, s: Vec<f64>) -> ::pardis_core::OrbResult<(Vec<f64>, Vec<i32>,)> {
        let call = self.inner.call("smooth").dseq_in_full(f).dseq_in_full(s).dseq_out(::pardis_core::Distribution::Concentrated(0usize)).dseq_out(::pardis_core::Distribution::Concentrated(0usize));
        let reply = call.invoke()?;
        Ok((reply.dseq::<f64>(0usize)?.take_local(), reply.dseq::<i32>(1usize)?.take_local(),))
    }
    /// Blocking invocation marshaling directly from POOMA fields (`-pooma`).
    pub fn smooth_pooma(&self, f: &::pooma_rs::Field2D, s: &::pardis_core::DSequence<f64>, g_dist: ::pardis_core::Distribution, c_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<(::pardis_core::DSequence<f64>, ::pardis_core::DSequence<i32>,)> {
        let f_ds = f.to_dseq();
        let call = self.inner.call("smooth").dseq_in(&f_ds).dseq_in(s).dseq_out(g_dist).dseq_out(c_dist);
        let reply = call.invoke()?;
        Ok((reply.dseq::<f64>(0usize)?, reply.dseq::<i32>(1usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn smooth_pooma_nb(&self, f: &::pooma_rs::Field2D, s: &::pardis_core::DSequence<f64>, g_dist: ::pardis_core::Distribution, c_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<SmootherSmoothFutures> {
        let f_ds = f.to_dseq();
        let call = self.inner.call("smooth").dseq_in(&f_ds).dseq_in(s).dseq_out(g_dist).dseq_out(c_dist);
        let handle = call.invoke_nb()?;
        Ok(SmootherSmoothFutures { g: handle.dseq_future::<f64>(0usize), c: handle.dseq_future::<i32>(1usize), handle })
    }
    /// Blocking invocation marshaling directly from HPC++ PSTL distributed vectors (`-hpcxx`).
    pub fn smooth_hpcxx(&self, f: &::pstl_rs::DistVector<f64>, s: &::pardis_core::DSequence<f64>, g_dist: ::pardis_core::Distribution, c_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<(::pardis_core::DSequence<f64>, ::pardis_core::DSequence<i32>,)> {
        let f_ds = f.to_dseq();
        let call = self.inner.call("smooth").dseq_in(&f_ds).dseq_in(s).dseq_out(g_dist).dseq_out(c_dist);
        let reply = call.invoke()?;
        Ok((reply.dseq::<f64>(0usize)?, reply.dseq::<i32>(1usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn smooth_hpcxx_nb(&self, f: &::pstl_rs::DistVector<f64>, s: &::pardis_core::DSequence<f64>, g_dist: ::pardis_core::Distribution, c_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<SmootherSmoothFutures> {
        let f_ds = f.to_dseq();
        let call = self.inner.call("smooth").dseq_in(&f_ds).dseq_in(s).dseq_out(g_dist).dseq_out(c_dist);
        let handle = call.invoke_nb()?;
        Ok(SmootherSmoothFutures { g: handle.dseq_future::<f64>(0usize), c: handle.dseq_future::<i32>(1usize), handle })
    }
    /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
    pub fn norm(&self, k: &i32, c: &::pardis_core::DSequence<i32>, s_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<(f64, ::pardis_core::DSequence<f64>,)> {
        let call = self.inner.call("norm").arg(k).dseq_in(c).dseq_out(s_dist);
        let reply = call.invoke()?;
        Ok((reply.scalar::<f64>(0usize)?, reply.dseq::<f64>(0usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn norm_nb(&self, k: &i32, c: &::pardis_core::DSequence<i32>, s_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<SmootherNormFutures> {
        let call = self.inner.call("norm").arg(k).dseq_in(c).dseq_out(s_dist);
        let handle = call.invoke_nb()?;
        Ok(SmootherNormFutures { ret: handle.scalar_future::<f64>(0usize), s: handle.dseq_future::<f64>(0usize), handle })
    }
    /// Blocking invocation, non-distributed stub: whole sequences, for single clients (§3.1).
    pub fn norm_single(&self, k: &i32, c: Vec<i32>) -> ::pardis_core::OrbResult<(f64, Vec<f64>,)> {
        let call = self.inner.call("norm").arg(k).dseq_in_full(c).dseq_out(::pardis_core::Distribution::Concentrated(0usize));
        let reply = call.invoke()?;
        Ok((reply.scalar::<f64>(0usize)?, reply.dseq::<f64>(0usize)?.take_local(),))
    }
    /// Blocking invocation marshaling directly from HPC++ PSTL distributed vectors (`-hpcxx`).
    pub fn norm_hpcxx(&self, k: &i32, c: &::pstl_rs::DistVector<i32>, s_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<(f64, ::pardis_core::DSequence<f64>,)> {
        let c_ds = c.to_dseq();
        let call = self.inner.call("norm").arg(k).dseq_in(&c_ds).dseq_out(s_dist);
        let reply = call.invoke()?;
        Ok((reply.scalar::<f64>(0usize)?, reply.dseq::<f64>(0usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn norm_hpcxx_nb(&self, k: &i32, c: &::pstl_rs::DistVector<i32>, s_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<SmootherNormFutures> {
        let c_ds = c.to_dseq();
        let call = self.inner.call("norm").arg(k).dseq_in(&c_ds).dseq_out(s_dist);
        let handle = call.invoke_nb()?;
        Ok(SmootherNormFutures { ret: handle.scalar_future::<f64>(0usize), s: handle.dseq_future::<f64>(0usize), handle })
    }
    /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
    pub fn discard(&self, f: &::pardis_core::DSequence<f64>, s: &::pardis_core::DSequence<f64>) -> ::pardis_core::OrbResult<()> {
        let call = self.inner.call("discard").dseq_in(f).dseq_in(s);
        call.invoke_oneway()
    }
    /// Blocking invocation, non-distributed stub: whole sequences, for single clients (§3.1).
    pub fn discard_single(&self, f: Vec<f64>, s: Vec<f64>) -> ::pardis_core::OrbResult<()> {
        let call = self.inner.call("discard").dseq_in_full(f).dseq_in_full(s);
        call.invoke_oneway()
    }
    /// Blocking invocation marshaling directly from POOMA fields (`-pooma`).
    pub fn discard_pooma(&self, f: &::pooma_rs::Field2D, s: &::pardis_core::DSequence<f64>) -> ::pardis_core::OrbResult<()> {
        let f_ds = f.to_dseq();
        let call = self.inner.call("discard").dseq_in(&f_ds).dseq_in(s);
        call.invoke_oneway()
    }
    /// Blocking invocation marshaling directly from HPC++ PSTL distributed vectors (`-hpcxx`).
    pub fn discard_hpcxx(&self, f: &::pstl_rs::DistVector<f64>, s: &::pardis_core::DSequence<f64>) -> ::pardis_core::OrbResult<()> {
        let f_ds = f.to_dseq();
        let call = self.inner.call("discard").dseq_in(&f_ds).dseq_in(s);
        call.invoke_oneway()
    }
    /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
    pub fn reset(&self) -> ::pardis_core::OrbResult<()> {
        let call = self.inner.call("reset");
        let reply = call.invoke()?;
        let _ = reply;
        Ok(())
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn reset_nb(&self) -> ::pardis_core::OrbResult<SmootherResetFutures> {
        let call = self.inner.call("reset");
        let handle = call.invoke_nb()?;
        Ok(SmootherResetFutures { handle })
    }
}
/// Futures of `Smoother::smooth`; all resolve together when the server completes.
pub struct SmootherSmoothFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
    /// Future of distributed out argument `g`.
    pub g: ::pardis_core::DSeqFuture<f64>,
    /// Future of distributed out argument `c`.
    pub c: ::pardis_core::DSeqFuture<i32>,
}
impl SmootherSmoothFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Futures of `Smoother::norm`; all resolve together when the server completes.
pub struct SmootherNormFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
    /// Future of the return value.
    pub ret: ::pardis_core::PFuture<f64>,
    /// Future of distributed out argument `s`.
    pub s: ::pardis_core::DSeqFuture<f64>,
}
impl SmootherNormFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Futures of `Smoother::reset`; all resolve together when the server completes.
pub struct SmootherResetFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
}
impl SmootherResetFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Implementation trait for IDL interface `smoother` — implement this and
/// wrap it in [`SmootherSkel`] to activate.
pub trait SmootherImpl: Send + Sync + 'static {
    /// IDL operation `smooth`.
    fn smooth(&self, ctx: &::pardis_core::ServantCtx, f: ::pardis_core::DSequence<f64>, s: ::pardis_core::DSequence<f64>) -> Result<(::pardis_core::DSequence<f64>, ::pardis_core::DSequence<i32>,), String>;
    /// IDL operation `norm`.
    fn norm(&self, ctx: &::pardis_core::ServantCtx, k: i32, c: ::pardis_core::DSequence<i32>) -> Result<(f64, ::pardis_core::DSequence<f64>,), String>;
    /// IDL operation `discard`.
    fn discard(&self, ctx: &::pardis_core::ServantCtx, f: ::pardis_core::DSequence<f64>, s: ::pardis_core::DSequence<f64>) -> Result<(), String>;
    /// IDL operation `reset`.
    fn reset(&self, ctx: &::pardis_core::ServantCtx) -> Result<(), String>;
}
/// Servant adapter: decodes requests and calls a [`SmootherImpl`].
pub struct SmootherSkel<T: SmootherImpl>(pub T);
impl<T: SmootherImpl> ::pardis_core::Servant for SmootherSkel<T> {
    fn interface(&self) -> &str {
        "smoother"
    }
    fn dispatch(&self, req: ::pardis_core::ServerRequest<'_>) -> Result<::pardis_core::ServerReply, String> {
        match req.op {
            "smooth" => {
                let f: ::pardis_core::DSequence<f64> = req.dseq(0usize).map_err(|e| e.to_string())?;
                let s: ::pardis_core::DSequence<f64> = req.dseq(1usize).map_err(|e| e.to_string())?;
                let out = self.0.smooth(req.ctx, f, s)?;
                let mut rep = ::pardis_core::ServerReply::new();
                rep.push_dseq(out.0);
                rep.push_dseq(out.1);
                Ok(rep)
            }
            "norm" => {
                let k: i32 = req.scalar(0usize).map_err(|e| e.to_string())?;
                let c: ::pardis_core::DSequence<i32> = req.dseq(0usize).map_err(|e| e.to_string())?;
                let out = self.0.norm(req.ctx, k, c)?;
                let mut rep = ::pardis_core::ServerReply::new();
                rep.push_scalar(&out.0);
                rep.push_dseq(out.1);
                Ok(rep)
            }
            "discard" => {
                let f: ::pardis_core::DSequence<f64> = req.dseq(0usize).map_err(|e| e.to_string())?;
                let s: ::pardis_core::DSequence<f64> = req.dseq(1usize).map_err(|e| e.to_string())?;
                let out = self.0.discard(req.ctx, f, s)?;
                let mut rep = ::pardis_core::ServerReply::new();
                let _ = out;
                Ok(rep)
            }
            "reset" => {
                let out = self.0.reset(req.ctx)?;
                let mut rep = ::pardis_core::ServerReply::new();
                let _ = out;
                Ok(rep)
            }
            other => Err(format!("interface smoother has no operation {other:?}")),
        }
    }
}
/// Default server-side distribution policy declared in the IDL for
/// interface `tuned` (pass to `Poa::activate_spmd`).
pub fn tuned_default_policy() -> ::pardis_core::DistPolicy {
    let mut policy = ::pardis_core::DistPolicy::new();
    policy.set("smooth", 0u32, ::pardis_core::Distribution::Cyclic);
    policy.set("smooth", 1u32, ::pardis_core::Distribution::Concentrated(1));
    policy.set("norm", 0u32, ::pardis_core::Distribution::BlockCyclic(4));
    policy.set("discard", 0u32, ::pardis_core::Distribution::Cyclic);
    policy.set("discard", 1u32, ::pardis_core::Distribution::Concentrated(1));
    policy
}
/// Client proxy for IDL interface `tuned`.
pub struct TunedProxy {
    inner: ::pardis_core::Proxy,
}
impl TunedProxy {
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
    pub fn smooth(&self, f: &::pardis_core::DSequence<f64>, s: &::pardis_core::DSequence<f64>, g_dist: ::pardis_core::Distribution, c_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<(::pardis_core::DSequence<f64>, ::pardis_core::DSequence<i32>,)> {
        let call = self.inner.call("smooth").dseq_in(f).dseq_in(s).dseq_out(g_dist).dseq_out(c_dist);
        let reply = call.invoke()?;
        Ok((reply.dseq::<f64>(0usize)?, reply.dseq::<i32>(1usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn smooth_nb(&self, f: &::pardis_core::DSequence<f64>, s: &::pardis_core::DSequence<f64>, g_dist: ::pardis_core::Distribution, c_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<TunedSmoothFutures> {
        let call = self.inner.call("smooth").dseq_in(f).dseq_in(s).dseq_out(g_dist).dseq_out(c_dist);
        let handle = call.invoke_nb()?;
        Ok(TunedSmoothFutures { g: handle.dseq_future::<f64>(0usize), c: handle.dseq_future::<i32>(1usize), handle })
    }
    /// Blocking invocation, non-distributed stub: whole sequences, for single clients (§3.1).
    pub fn smooth_single(&self, f: Vec<f64>, s: Vec<f64>) -> ::pardis_core::OrbResult<(Vec<f64>, Vec<i32>,)> {
        let call = self.inner.call("smooth").dseq_in_full(f).dseq_in_full(s).dseq_out(::pardis_core::Distribution::Concentrated(0usize)).dseq_out(::pardis_core::Distribution::Concentrated(0usize));
        let reply = call.invoke()?;
        Ok((reply.dseq::<f64>(0usize)?.take_local(), reply.dseq::<i32>(1usize)?.take_local(),))
    }
    /// Blocking invocation marshaling directly from POOMA fields (`-pooma`).
    pub fn smooth_pooma(&self, f: &::pooma_rs::Field2D, s: &::pardis_core::DSequence<f64>, g_dist: ::pardis_core::Distribution, c_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<(::pardis_core::DSequence<f64>, ::pardis_core::DSequence<i32>,)> {
        let f_ds = f.to_dseq();
        let call = self.inner.call("smooth").dseq_in(&f_ds).dseq_in(s).dseq_out(g_dist).dseq_out(c_dist);
        let reply = call.invoke()?;
        Ok((reply.dseq::<f64>(0usize)?, reply.dseq::<i32>(1usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn smooth_pooma_nb(&self, f: &::pooma_rs::Field2D, s: &::pardis_core::DSequence<f64>, g_dist: ::pardis_core::Distribution, c_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<TunedSmoothFutures> {
        let f_ds = f.to_dseq();
        let call = self.inner.call("smooth").dseq_in(&f_ds).dseq_in(s).dseq_out(g_dist).dseq_out(c_dist);
        let handle = call.invoke_nb()?;
        Ok(TunedSmoothFutures { g: handle.dseq_future::<f64>(0usize), c: handle.dseq_future::<i32>(1usize), handle })
    }
    /// Blocking invocation marshaling directly from HPC++ PSTL distributed vectors (`-hpcxx`).
    pub fn smooth_hpcxx(&self, f: &::pstl_rs::DistVector<f64>, s: &::pardis_core::DSequence<f64>, g_dist: ::pardis_core::Distribution, c_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<(::pardis_core::DSequence<f64>, ::pardis_core::DSequence<i32>,)> {
        let f_ds = f.to_dseq();
        let call = self.inner.call("smooth").dseq_in(&f_ds).dseq_in(s).dseq_out(g_dist).dseq_out(c_dist);
        let reply = call.invoke()?;
        Ok((reply.dseq::<f64>(0usize)?, reply.dseq::<i32>(1usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn smooth_hpcxx_nb(&self, f: &::pstl_rs::DistVector<f64>, s: &::pardis_core::DSequence<f64>, g_dist: ::pardis_core::Distribution, c_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<TunedSmoothFutures> {
        let f_ds = f.to_dseq();
        let call = self.inner.call("smooth").dseq_in(&f_ds).dseq_in(s).dseq_out(g_dist).dseq_out(c_dist);
        let handle = call.invoke_nb()?;
        Ok(TunedSmoothFutures { g: handle.dseq_future::<f64>(0usize), c: handle.dseq_future::<i32>(1usize), handle })
    }
    /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
    pub fn norm(&self, k: &i32, c: &::pardis_core::DSequence<i32>, s_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<(f64, ::pardis_core::DSequence<f64>,)> {
        let call = self.inner.call("norm").arg(k).dseq_in(c).dseq_out(s_dist);
        let reply = call.invoke()?;
        Ok((reply.scalar::<f64>(0usize)?, reply.dseq::<f64>(0usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn norm_nb(&self, k: &i32, c: &::pardis_core::DSequence<i32>, s_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<TunedNormFutures> {
        let call = self.inner.call("norm").arg(k).dseq_in(c).dseq_out(s_dist);
        let handle = call.invoke_nb()?;
        Ok(TunedNormFutures { ret: handle.scalar_future::<f64>(0usize), s: handle.dseq_future::<f64>(0usize), handle })
    }
    /// Blocking invocation, non-distributed stub: whole sequences, for single clients (§3.1).
    pub fn norm_single(&self, k: &i32, c: Vec<i32>) -> ::pardis_core::OrbResult<(f64, Vec<f64>,)> {
        let call = self.inner.call("norm").arg(k).dseq_in_full(c).dseq_out(::pardis_core::Distribution::Concentrated(0usize));
        let reply = call.invoke()?;
        Ok((reply.scalar::<f64>(0usize)?, reply.dseq::<f64>(0usize)?.take_local(),))
    }
    /// Blocking invocation marshaling directly from HPC++ PSTL distributed vectors (`-hpcxx`).
    pub fn norm_hpcxx(&self, k: &i32, c: &::pstl_rs::DistVector<i32>, s_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<(f64, ::pardis_core::DSequence<f64>,)> {
        let c_ds = c.to_dseq();
        let call = self.inner.call("norm").arg(k).dseq_in(&c_ds).dseq_out(s_dist);
        let reply = call.invoke()?;
        Ok((reply.scalar::<f64>(0usize)?, reply.dseq::<f64>(0usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn norm_hpcxx_nb(&self, k: &i32, c: &::pstl_rs::DistVector<i32>, s_dist: ::pardis_core::Distribution) -> ::pardis_core::OrbResult<TunedNormFutures> {
        let c_ds = c.to_dseq();
        let call = self.inner.call("norm").arg(k).dseq_in(&c_ds).dseq_out(s_dist);
        let handle = call.invoke_nb()?;
        Ok(TunedNormFutures { ret: handle.scalar_future::<f64>(0usize), s: handle.dseq_future::<f64>(0usize), handle })
    }
    /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
    pub fn discard(&self, f: &::pardis_core::DSequence<f64>, s: &::pardis_core::DSequence<f64>) -> ::pardis_core::OrbResult<()> {
        let call = self.inner.call("discard").dseq_in(f).dseq_in(s);
        call.invoke_oneway()
    }
    /// Blocking invocation, non-distributed stub: whole sequences, for single clients (§3.1).
    pub fn discard_single(&self, f: Vec<f64>, s: Vec<f64>) -> ::pardis_core::OrbResult<()> {
        let call = self.inner.call("discard").dseq_in_full(f).dseq_in_full(s);
        call.invoke_oneway()
    }
    /// Blocking invocation marshaling directly from POOMA fields (`-pooma`).
    pub fn discard_pooma(&self, f: &::pooma_rs::Field2D, s: &::pardis_core::DSequence<f64>) -> ::pardis_core::OrbResult<()> {
        let f_ds = f.to_dseq();
        let call = self.inner.call("discard").dseq_in(&f_ds).dseq_in(s);
        call.invoke_oneway()
    }
    /// Blocking invocation marshaling directly from HPC++ PSTL distributed vectors (`-hpcxx`).
    pub fn discard_hpcxx(&self, f: &::pstl_rs::DistVector<f64>, s: &::pardis_core::DSequence<f64>) -> ::pardis_core::OrbResult<()> {
        let f_ds = f.to_dseq();
        let call = self.inner.call("discard").dseq_in(&f_ds).dseq_in(s);
        call.invoke_oneway()
    }
    /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
    pub fn reset(&self) -> ::pardis_core::OrbResult<()> {
        let call = self.inner.call("reset");
        let reply = call.invoke()?;
        let _ = reply;
        Ok(())
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn reset_nb(&self) -> ::pardis_core::OrbResult<TunedResetFutures> {
        let call = self.inner.call("reset");
        let handle = call.invoke_nb()?;
        Ok(TunedResetFutures { handle })
    }
    /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
    pub fn get_rate(&self) -> ::pardis_core::OrbResult<(i32,)> {
        let call = self.inner.call("_get_rate");
        let reply = call.invoke()?;
        Ok((reply.scalar::<i32>(0usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn get_rate_nb(&self) -> ::pardis_core::OrbResult<TunedGetRateFutures> {
        let call = self.inner.call("_get_rate");
        let handle = call.invoke_nb()?;
        Ok(TunedGetRateFutures { ret: handle.scalar_future::<i32>(0usize), handle })
    }
    /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
    pub fn set_rate(&self, value: &i32) -> ::pardis_core::OrbResult<()> {
        let call = self.inner.call("_set_rate").arg(value);
        let reply = call.invoke()?;
        let _ = reply;
        Ok(())
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn set_rate_nb(&self, value: &i32) -> ::pardis_core::OrbResult<TunedSetRateFutures> {
        let call = self.inner.call("_set_rate").arg(value);
        let handle = call.invoke_nb()?;
        Ok(TunedSetRateFutures { handle })
    }
    /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
    pub fn ping(&self, seq: &i32) -> ::pardis_core::OrbResult<()> {
        let call = self.inner.call("ping").arg(seq);
        call.invoke_oneway()
    }
    /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
    pub fn sample(&self, p: &outer::Probe, cursor: &i32) -> ::pardis_core::OrbResult<(outer::inner::Reading, i32, [[i32; 2usize]; 2usize],)> {
        let call = self.inner.call("sample").arg(p).arg(cursor);
        let reply = call.invoke()?;
        Ok((reply.scalar::<outer::inner::Reading>(0usize)?, reply.scalar::<i32>(1usize)?, reply.scalar::<[[i32; 2usize]; 2usize]>(2usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn sample_nb(&self, p: &outer::Probe, cursor: &i32) -> ::pardis_core::OrbResult<TunedSampleFutures> {
        let call = self.inner.call("sample").arg(p).arg(cursor);
        let handle = call.invoke_nb()?;
        Ok(TunedSampleFutures { ret: handle.scalar_future::<outer::inner::Reading>(0usize), cursor: handle.scalar_future::<i32>(1usize), cells: handle.scalar_future::<[[i32; 2usize]; 2usize]>(2usize), handle })
    }
    /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
    pub fn calibrate(&self, offsets: &[f64; 3usize], label: &String) -> ::pardis_core::OrbResult<([f64; 3usize], String,)> {
        let call = self.inner.call("calibrate").arg(offsets).arg(label);
        let reply = call.invoke()?;
        Ok((reply.scalar::<[f64; 3usize]>(0usize)?, reply.scalar::<String>(1usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn calibrate_nb(&self, offsets: &[f64; 3usize], label: &String) -> ::pardis_core::OrbResult<TunedCalibrateFutures> {
        let call = self.inner.call("calibrate").arg(offsets).arg(label);
        let handle = call.invoke_nb()?;
        Ok(TunedCalibrateFutures { offsets: handle.scalar_future::<[f64; 3usize]>(0usize), label: handle.scalar_future::<String>(1usize), handle })
    }
    /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
    pub fn tune(&self, knob: &i64) -> ::pardis_core::OrbResult<(i64,)> {
        let call = self.inner.call("tune").arg(knob);
        let reply = call.invoke()?;
        Ok((reply.scalar::<i64>(0usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn tune_nb(&self, knob: &i64) -> ::pardis_core::OrbResult<TunedTuneFutures> {
        let call = self.inner.call("tune").arg(knob);
        let handle = call.invoke_nb()?;
        Ok(TunedTuneFutures { ret: handle.scalar_future::<i64>(0usize), handle })
    }
}
/// Futures of `Tuned::smooth`; all resolve together when the server completes.
pub struct TunedSmoothFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
    /// Future of distributed out argument `g`.
    pub g: ::pardis_core::DSeqFuture<f64>,
    /// Future of distributed out argument `c`.
    pub c: ::pardis_core::DSeqFuture<i32>,
}
impl TunedSmoothFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Futures of `Tuned::norm`; all resolve together when the server completes.
pub struct TunedNormFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
    /// Future of the return value.
    pub ret: ::pardis_core::PFuture<f64>,
    /// Future of distributed out argument `s`.
    pub s: ::pardis_core::DSeqFuture<f64>,
}
impl TunedNormFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Futures of `Tuned::reset`; all resolve together when the server completes.
pub struct TunedResetFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
}
impl TunedResetFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Futures of `Tuned::_get_rate`; all resolve together when the server completes.
pub struct TunedGetRateFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
    /// Future of the return value.
    pub ret: ::pardis_core::PFuture<i32>,
}
impl TunedGetRateFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Futures of `Tuned::_set_rate`; all resolve together when the server completes.
pub struct TunedSetRateFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
}
impl TunedSetRateFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Futures of `Tuned::sample`; all resolve together when the server completes.
pub struct TunedSampleFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
    /// Future of the return value.
    pub ret: ::pardis_core::PFuture<outer::inner::Reading>,
    /// Future of out argument `cursor`.
    pub cursor: ::pardis_core::PFuture<i32>,
    /// Future of out argument `cells`.
    pub cells: ::pardis_core::PFuture<[[i32; 2usize]; 2usize]>,
}
impl TunedSampleFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Futures of `Tuned::calibrate`; all resolve together when the server completes.
pub struct TunedCalibrateFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
    /// Future of out argument `offsets`.
    pub offsets: ::pardis_core::PFuture<[f64; 3usize]>,
    /// Future of out argument `label`.
    pub label: ::pardis_core::PFuture<String>,
}
impl TunedCalibrateFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Futures of `Tuned::tune`; all resolve together when the server completes.
pub struct TunedTuneFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
    /// Future of the return value.
    pub ret: ::pardis_core::PFuture<i64>,
}
impl TunedTuneFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Implementation trait for IDL interface `tuned` — implement this and
/// wrap it in [`TunedSkel`] to activate.
pub trait TunedImpl: Send + Sync + 'static {
    /// IDL operation `smooth`.
    fn smooth(&self, ctx: &::pardis_core::ServantCtx, f: ::pardis_core::DSequence<f64>, s: ::pardis_core::DSequence<f64>) -> Result<(::pardis_core::DSequence<f64>, ::pardis_core::DSequence<i32>,), String>;
    /// IDL operation `norm`.
    fn norm(&self, ctx: &::pardis_core::ServantCtx, k: i32, c: ::pardis_core::DSequence<i32>) -> Result<(f64, ::pardis_core::DSequence<f64>,), String>;
    /// IDL operation `discard`.
    fn discard(&self, ctx: &::pardis_core::ServantCtx, f: ::pardis_core::DSequence<f64>, s: ::pardis_core::DSequence<f64>) -> Result<(), String>;
    /// IDL operation `reset`.
    fn reset(&self, ctx: &::pardis_core::ServantCtx) -> Result<(), String>;
    /// IDL operation `_get_rate`.
    fn get_rate(&self, ctx: &::pardis_core::ServantCtx) -> Result<(i32,), String>;
    /// IDL operation `_set_rate`.
    fn set_rate(&self, ctx: &::pardis_core::ServantCtx, value: i32) -> Result<(), String>;
    /// IDL operation `ping`.
    fn ping(&self, ctx: &::pardis_core::ServantCtx, seq: i32) -> Result<(), String>;
    /// IDL operation `sample`.
    /// Raises outer::BadProbe (return `Err(exc.into())`).
    fn sample(&self, ctx: &::pardis_core::ServantCtx, p: outer::Probe, cursor: i32) -> Result<(outer::inner::Reading, i32, [[i32; 2usize]; 2usize],), ::pardis_core::Raised>;
    /// IDL operation `calibrate`.
    fn calibrate(&self, ctx: &::pardis_core::ServantCtx, offsets: [f64; 3usize], label: String) -> Result<([f64; 3usize], String,), String>;
    /// IDL operation `tune`.
    fn tune(&self, ctx: &::pardis_core::ServantCtx, knob: i64) -> Result<(i64,), String>;
}
/// Servant adapter: decodes requests and calls a [`TunedImpl`].
pub struct TunedSkel<T: TunedImpl>(pub T);
impl<T: TunedImpl> ::pardis_core::Servant for TunedSkel<T> {
    fn interface(&self) -> &str {
        "tuned"
    }
    fn dispatch(&self, req: ::pardis_core::ServerRequest<'_>) -> Result<::pardis_core::ServerReply, String> {
        match req.op {
            "smooth" => {
                let f: ::pardis_core::DSequence<f64> = req.dseq(0usize).map_err(|e| e.to_string())?;
                let s: ::pardis_core::DSequence<f64> = req.dseq(1usize).map_err(|e| e.to_string())?;
                let out = self.0.smooth(req.ctx, f, s)?;
                let mut rep = ::pardis_core::ServerReply::new();
                rep.push_dseq(out.0);
                rep.push_dseq(out.1);
                Ok(rep)
            }
            "norm" => {
                let k: i32 = req.scalar(0usize).map_err(|e| e.to_string())?;
                let c: ::pardis_core::DSequence<i32> = req.dseq(0usize).map_err(|e| e.to_string())?;
                let out = self.0.norm(req.ctx, k, c)?;
                let mut rep = ::pardis_core::ServerReply::new();
                rep.push_scalar(&out.0);
                rep.push_dseq(out.1);
                Ok(rep)
            }
            "discard" => {
                let f: ::pardis_core::DSequence<f64> = req.dseq(0usize).map_err(|e| e.to_string())?;
                let s: ::pardis_core::DSequence<f64> = req.dseq(1usize).map_err(|e| e.to_string())?;
                let out = self.0.discard(req.ctx, f, s)?;
                let mut rep = ::pardis_core::ServerReply::new();
                let _ = out;
                Ok(rep)
            }
            "reset" => {
                let out = self.0.reset(req.ctx)?;
                let mut rep = ::pardis_core::ServerReply::new();
                let _ = out;
                Ok(rep)
            }
            "_get_rate" => {
                let out = self.0.get_rate(req.ctx)?;
                let mut rep = ::pardis_core::ServerReply::new();
                rep.push_scalar(&out.0);
                Ok(rep)
            }
            "_set_rate" => {
                let value: i32 = req.scalar(0usize).map_err(|e| e.to_string())?;
                let out = self.0.set_rate(req.ctx, value)?;
                let mut rep = ::pardis_core::ServerReply::new();
                let _ = out;
                Ok(rep)
            }
            "ping" => {
                let seq: i32 = req.scalar(0usize).map_err(|e| e.to_string())?;
                let out = self.0.ping(req.ctx, seq)?;
                let mut rep = ::pardis_core::ServerReply::new();
                let _ = out;
                Ok(rep)
            }
            "sample" => {
                let p: outer::Probe = req.scalar(0usize).map_err(|e| e.to_string())?;
                let cursor: i32 = req.scalar(1usize).map_err(|e| e.to_string())?;
                let out = match self.0.sample(req.ctx, p, cursor) {
                    Ok(out) => out,
                    Err(raised) => return Ok(::pardis_core::ServerReply::raising(raised)),
                };
                let mut rep = ::pardis_core::ServerReply::new();
                rep.push_scalar(&out.0);
                rep.push_scalar(&out.1);
                rep.push_scalar(&out.2);
                Ok(rep)
            }
            "calibrate" => {
                let offsets: [f64; 3usize] = req.scalar(0usize).map_err(|e| e.to_string())?;
                let label: String = req.scalar(1usize).map_err(|e| e.to_string())?;
                let out = self.0.calibrate(req.ctx, offsets, label)?;
                let mut rep = ::pardis_core::ServerReply::new();
                rep.push_scalar(&out.0);
                rep.push_scalar(&out.1);
                Ok(rep)
            }
            "tune" => {
                let knob: i64 = req.scalar(0usize).map_err(|e| e.to_string())?;
                let out = self.0.tune(req.ctx, knob)?;
                let mut rep = ::pardis_core::ServerReply::new();
                rep.push_scalar(&out.0);
                Ok(rep)
            }
            other => Err(format!("interface tuned has no operation {other:?}")),
        }
    }
}
/// IDL module `outer`.
pub mod outer {
    /// IDL enum `phase`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Phase {
        /// `idle` (discriminant 0).
        Idle,
        /// `busy` (discriminant 1).
        Busy,
    }
    impl ::pardis_cdr::CdrCodec for Phase {
        fn encode(&self, e: &mut ::pardis_cdr::Encoder) {
            e.write_u32(*self as u32);
        }
        fn decode(d: &mut ::pardis_cdr::Decoder) -> Result<Self, ::pardis_cdr::CdrError> {
            match d.read_u32()? {
                0 => Ok(Phase::Idle),
                1 => Ok(Phase::Busy),
                other => Err(::pardis_cdr::CdrError::InvalidEnumDiscriminant { name: "phase".to_string(), value: other }),
            }
        }
        fn type_code() -> ::pardis_cdr::TypeCode {
            ::pardis_cdr::TypeCode::Enum {
                name: "phase".to_string(),
                variants: ::std::sync::Arc::new(vec![
                    "idle".to_string(),
                    "busy".to_string(),
                ]),
            }
        }
    }
    /// IDL struct `probe`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Probe {
        /// Field `at`.
        pub at: [f64; 3usize],
        /// Field `state`.
        pub state: Phase,
    }
    impl ::pardis_cdr::CdrCodec for Probe {
        fn encode(&self, e: &mut ::pardis_cdr::Encoder) {
            ::pardis_cdr::CdrCodec::encode(&self.at, e);
            ::pardis_cdr::CdrCodec::encode(&self.state, e);
        }
        fn decode(d: &mut ::pardis_cdr::Decoder) -> Result<Self, ::pardis_cdr::CdrError> {
            Ok(Probe {
                at: ::pardis_cdr::CdrCodec::decode(d)?,
                state: ::pardis_cdr::CdrCodec::decode(d)?,
            })
        }
        fn type_code() -> ::pardis_cdr::TypeCode {
            ::pardis_cdr::TypeCode::Struct {
                name: "probe".to_string(),
                fields: ::std::sync::Arc::new(vec![
                    ("at".to_string(), <[f64; 3usize] as ::pardis_cdr::CdrCodec>::type_code()),
                    ("state".to_string(), <Phase as ::pardis_cdr::CdrCodec>::type_code()),
                ]),
            }
        }
    }
    /// IDL exception `bad_probe` (usable in `raises` clauses).
    #[derive(Debug, Clone, PartialEq)]
    pub struct BadProbe {
        /// Member `index`.
        pub index: i32,
        /// Member `why`.
        pub why: String,
    }
    impl ::pardis_cdr::CdrCodec for BadProbe {
        fn encode(&self, e: &mut ::pardis_cdr::Encoder) {
            ::pardis_cdr::CdrCodec::encode(&self.index, e);
            ::pardis_cdr::CdrCodec::encode(&self.why, e);
        }
        fn decode(d: &mut ::pardis_cdr::Decoder) -> Result<Self, ::pardis_cdr::CdrError> {
            Ok(BadProbe {
                index: ::pardis_cdr::CdrCodec::decode(d)?,
                why: ::pardis_cdr::CdrCodec::decode(d)?,
            })
        }
        fn type_code() -> ::pardis_cdr::TypeCode {
            ::pardis_cdr::TypeCode::Struct {
                name: "bad_probe".to_string(),
                fields: ::std::sync::Arc::new(vec![
                    ("index".to_string(), <i32 as ::pardis_cdr::CdrCodec>::type_code()),
                    ("why".to_string(), <String as ::pardis_cdr::CdrCodec>::type_code()),
                ]),
            }
        }
    }
    impl BadProbe {
        /// Exception repository id.
        pub const REPO_ID: &'static str = "outer::bad_probe";
        /// Recover a typed exception from a client-side error, if it is
        /// this exception.
        pub fn from_error(e: &::pardis_core::OrbError) -> Option<Self> {
            if let ::pardis_core::OrbError::UserException { id, data } = e {
                if id == Self::REPO_ID {
                    return ::pardis_cdr::decode_slice::<Self>(data).ok();
                }
            }
            None
        }
    }
    impl From<BadProbe> for ::pardis_core::Raised {
        fn from(x: BadProbe) -> Self {
            ::pardis_core::Raised::new(BadProbe::REPO_ID, &x)
        }
    }
    impl ::std::fmt::Display for BadProbe {
        fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
            write!(f, "bad_probe: {self:?}")
        }
    }
    impl ::std::error::Error for BadProbe {}
    /// Default server-side distribution policy declared in the IDL for
    /// interface `calibrated` (pass to `Poa::activate_spmd`).
    pub fn calibrated_default_policy() -> ::pardis_core::DistPolicy {
        let mut policy = ::pardis_core::DistPolicy::new();
        policy
    }
    /// Client proxy for IDL interface `calibrated`.
    pub struct CalibratedProxy {
        inner: ::pardis_core::Proxy,
    }
    impl CalibratedProxy {
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
        pub fn get_rate(&self) -> ::pardis_core::OrbResult<(i32,)> {
            let call = self.inner.call("_get_rate");
            let reply = call.invoke()?;
            Ok((reply.scalar::<i32>(0usize)?,))
        }
        /// Non-blocking invocation: returns immediately with futures of the
        /// out arguments and return value (§3.3).
        pub fn get_rate_nb(&self) -> ::pardis_core::OrbResult<CalibratedGetRateFutures> {
            let call = self.inner.call("_get_rate");
            let handle = call.invoke_nb()?;
            Ok(CalibratedGetRateFutures { ret: handle.scalar_future::<i32>(0usize), handle })
        }
        /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
        pub fn set_rate(&self, value: &i32) -> ::pardis_core::OrbResult<()> {
            let call = self.inner.call("_set_rate").arg(value);
            let reply = call.invoke()?;
            let _ = reply;
            Ok(())
        }
        /// Non-blocking invocation: returns immediately with futures of the
        /// out arguments and return value (§3.3).
        pub fn set_rate_nb(&self, value: &i32) -> ::pardis_core::OrbResult<CalibratedSetRateFutures> {
            let call = self.inner.call("_set_rate").arg(value);
            let handle = call.invoke_nb()?;
            Ok(CalibratedSetRateFutures { handle })
        }
        /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
        pub fn ping(&self, seq: &i32) -> ::pardis_core::OrbResult<()> {
            let call = self.inner.call("ping").arg(seq);
            call.invoke_oneway()
        }
        /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
        pub fn sample(&self, p: &Probe, cursor: &i32) -> ::pardis_core::OrbResult<(inner::Reading, i32, [[i32; 2usize]; 2usize],)> {
            let call = self.inner.call("sample").arg(p).arg(cursor);
            let reply = call.invoke()?;
            Ok((reply.scalar::<inner::Reading>(0usize)?, reply.scalar::<i32>(1usize)?, reply.scalar::<[[i32; 2usize]; 2usize]>(2usize)?,))
        }
        /// Non-blocking invocation: returns immediately with futures of the
        /// out arguments and return value (§3.3).
        pub fn sample_nb(&self, p: &Probe, cursor: &i32) -> ::pardis_core::OrbResult<CalibratedSampleFutures> {
            let call = self.inner.call("sample").arg(p).arg(cursor);
            let handle = call.invoke_nb()?;
            Ok(CalibratedSampleFutures { ret: handle.scalar_future::<inner::Reading>(0usize), cursor: handle.scalar_future::<i32>(1usize), cells: handle.scalar_future::<[[i32; 2usize]; 2usize]>(2usize), handle })
        }
        /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
        pub fn calibrate(&self, offsets: &[f64; 3usize], label: &String) -> ::pardis_core::OrbResult<([f64; 3usize], String,)> {
            let call = self.inner.call("calibrate").arg(offsets).arg(label);
            let reply = call.invoke()?;
            Ok((reply.scalar::<[f64; 3usize]>(0usize)?, reply.scalar::<String>(1usize)?,))
        }
        /// Non-blocking invocation: returns immediately with futures of the
        /// out arguments and return value (§3.3).
        pub fn calibrate_nb(&self, offsets: &[f64; 3usize], label: &String) -> ::pardis_core::OrbResult<CalibratedCalibrateFutures> {
            let call = self.inner.call("calibrate").arg(offsets).arg(label);
            let handle = call.invoke_nb()?;
            Ok(CalibratedCalibrateFutures { offsets: handle.scalar_future::<[f64; 3usize]>(0usize), label: handle.scalar_future::<String>(1usize), handle })
        }
    }
    /// Futures of `Calibrated::_get_rate`; all resolve together when the server completes.
    pub struct CalibratedGetRateFutures {
        /// Completion handle (poll or cancel).
        pub handle: ::pardis_core::InvocationHandle,
        /// Future of the return value.
        pub ret: ::pardis_core::PFuture<i32>,
    }
    impl CalibratedGetRateFutures {
        /// Have all the futures resolved?
        pub fn resolved(&self) -> bool {
            self.handle.resolved()
        }
    }
    /// Futures of `Calibrated::_set_rate`; all resolve together when the server completes.
    pub struct CalibratedSetRateFutures {
        /// Completion handle (poll or cancel).
        pub handle: ::pardis_core::InvocationHandle,
    }
    impl CalibratedSetRateFutures {
        /// Have all the futures resolved?
        pub fn resolved(&self) -> bool {
            self.handle.resolved()
        }
    }
    /// Futures of `Calibrated::sample`; all resolve together when the server completes.
    pub struct CalibratedSampleFutures {
        /// Completion handle (poll or cancel).
        pub handle: ::pardis_core::InvocationHandle,
        /// Future of the return value.
        pub ret: ::pardis_core::PFuture<inner::Reading>,
        /// Future of out argument `cursor`.
        pub cursor: ::pardis_core::PFuture<i32>,
        /// Future of out argument `cells`.
        pub cells: ::pardis_core::PFuture<[[i32; 2usize]; 2usize]>,
    }
    impl CalibratedSampleFutures {
        /// Have all the futures resolved?
        pub fn resolved(&self) -> bool {
            self.handle.resolved()
        }
    }
    /// Futures of `Calibrated::calibrate`; all resolve together when the server completes.
    pub struct CalibratedCalibrateFutures {
        /// Completion handle (poll or cancel).
        pub handle: ::pardis_core::InvocationHandle,
        /// Future of out argument `offsets`.
        pub offsets: ::pardis_core::PFuture<[f64; 3usize]>,
        /// Future of out argument `label`.
        pub label: ::pardis_core::PFuture<String>,
    }
    impl CalibratedCalibrateFutures {
        /// Have all the futures resolved?
        pub fn resolved(&self) -> bool {
            self.handle.resolved()
        }
    }
    /// Implementation trait for IDL interface `calibrated` — implement this and
    /// wrap it in [`CalibratedSkel`] to activate.
    pub trait CalibratedImpl: Send + Sync + 'static {
        /// IDL operation `_get_rate`.
        fn get_rate(&self, ctx: &::pardis_core::ServantCtx) -> Result<(i32,), String>;
        /// IDL operation `_set_rate`.
        fn set_rate(&self, ctx: &::pardis_core::ServantCtx, value: i32) -> Result<(), String>;
        /// IDL operation `ping`.
        fn ping(&self, ctx: &::pardis_core::ServantCtx, seq: i32) -> Result<(), String>;
        /// IDL operation `sample`.
        /// Raises BadProbe (return `Err(exc.into())`).
        fn sample(&self, ctx: &::pardis_core::ServantCtx, p: Probe, cursor: i32) -> Result<(inner::Reading, i32, [[i32; 2usize]; 2usize],), ::pardis_core::Raised>;
        /// IDL operation `calibrate`.
        fn calibrate(&self, ctx: &::pardis_core::ServantCtx, offsets: [f64; 3usize], label: String) -> Result<([f64; 3usize], String,), String>;
    }
    /// Servant adapter: decodes requests and calls a [`CalibratedImpl`].
    pub struct CalibratedSkel<T: CalibratedImpl>(pub T);
    impl<T: CalibratedImpl> ::pardis_core::Servant for CalibratedSkel<T> {
        fn interface(&self) -> &str {
            "outer::calibrated"
        }
        fn dispatch(&self, req: ::pardis_core::ServerRequest<'_>) -> Result<::pardis_core::ServerReply, String> {
            match req.op {
                "_get_rate" => {
                    let out = self.0.get_rate(req.ctx)?;
                    let mut rep = ::pardis_core::ServerReply::new();
                    rep.push_scalar(&out.0);
                    Ok(rep)
                }
                "_set_rate" => {
                    let value: i32 = req.scalar(0usize).map_err(|e| e.to_string())?;
                    let out = self.0.set_rate(req.ctx, value)?;
                    let mut rep = ::pardis_core::ServerReply::new();
                    let _ = out;
                    Ok(rep)
                }
                "ping" => {
                    let seq: i32 = req.scalar(0usize).map_err(|e| e.to_string())?;
                    let out = self.0.ping(req.ctx, seq)?;
                    let mut rep = ::pardis_core::ServerReply::new();
                    let _ = out;
                    Ok(rep)
                }
                "sample" => {
                    let p: Probe = req.scalar(0usize).map_err(|e| e.to_string())?;
                    let cursor: i32 = req.scalar(1usize).map_err(|e| e.to_string())?;
                    let out = match self.0.sample(req.ctx, p, cursor) {
                        Ok(out) => out,
                        Err(raised) => return Ok(::pardis_core::ServerReply::raising(raised)),
                    };
                    let mut rep = ::pardis_core::ServerReply::new();
                    rep.push_scalar(&out.0);
                    rep.push_scalar(&out.1);
                    rep.push_scalar(&out.2);
                    Ok(rep)
                }
                "calibrate" => {
                    let offsets: [f64; 3usize] = req.scalar(0usize).map_err(|e| e.to_string())?;
                    let label: String = req.scalar(1usize).map_err(|e| e.to_string())?;
                    let out = self.0.calibrate(req.ctx, offsets, label)?;
                    let mut rep = ::pardis_core::ServerReply::new();
                    rep.push_scalar(&out.0);
                    rep.push_scalar(&out.1);
                    Ok(rep)
                }
                other => Err(format!("interface calibrated has no operation {other:?}")),
            }
        }
    }
    /// IDL module `inner`.
    pub mod inner {
        /// IDL struct `reading`.
        #[derive(Debug, Clone, PartialEq)]
        pub struct Reading {
            /// Field `source`.
            pub source: super::Probe,
            /// Field `values`.
            pub values: Vec<f64>,
        }
        impl ::pardis_cdr::CdrCodec for Reading {
            fn encode(&self, e: &mut ::pardis_cdr::Encoder) {
                ::pardis_cdr::CdrCodec::encode(&self.source, e);
                ::pardis_cdr::CdrCodec::encode(&self.values, e);
            }
            fn decode(d: &mut ::pardis_cdr::Decoder) -> Result<Self, ::pardis_cdr::CdrError> {
                Ok(Reading {
                    source: ::pardis_cdr::CdrCodec::decode(d)?,
                    values: ::pardis_cdr::CdrCodec::decode(d)?,
                })
            }
            fn type_code() -> ::pardis_cdr::TypeCode {
                ::pardis_cdr::TypeCode::Struct {
                    name: "reading".to_string(),
                    fields: ::std::sync::Arc::new(vec![
                        ("source".to_string(), <super::Probe as ::pardis_cdr::CdrCodec>::type_code()),
                        ("values".to_string(), <Vec<f64> as ::pardis_cdr::CdrCodec>::type_code()),
                    ]),
                }
            }
        }
        /// Default server-side distribution policy declared in the IDL for
        /// interface `sensor` (pass to `Poa::activate_spmd`).
        pub fn sensor_default_policy() -> ::pardis_core::DistPolicy {
            let mut policy = ::pardis_core::DistPolicy::new();
            policy
        }
        /// Client proxy for IDL interface `sensor`.
        pub struct SensorProxy {
            inner: ::pardis_core::Proxy,
        }
        impl SensorProxy {
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
            pub fn get_rate(&self) -> ::pardis_core::OrbResult<(i32,)> {
                let call = self.inner.call("_get_rate");
                let reply = call.invoke()?;
                Ok((reply.scalar::<i32>(0usize)?,))
            }
            /// Non-blocking invocation: returns immediately with futures of the
            /// out arguments and return value (§3.3).
            pub fn get_rate_nb(&self) -> ::pardis_core::OrbResult<SensorGetRateFutures> {
                let call = self.inner.call("_get_rate");
                let handle = call.invoke_nb()?;
                Ok(SensorGetRateFutures { ret: handle.scalar_future::<i32>(0usize), handle })
            }
            /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
            pub fn set_rate(&self, value: &i32) -> ::pardis_core::OrbResult<()> {
                let call = self.inner.call("_set_rate").arg(value);
                let reply = call.invoke()?;
                let _ = reply;
                Ok(())
            }
            /// Non-blocking invocation: returns immediately with futures of the
            /// out arguments and return value (§3.3).
            pub fn set_rate_nb(&self, value: &i32) -> ::pardis_core::OrbResult<SensorSetRateFutures> {
                let call = self.inner.call("_set_rate").arg(value);
                let handle = call.invoke_nb()?;
                Ok(SensorSetRateFutures { handle })
            }
            /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
            pub fn ping(&self, seq: &i32) -> ::pardis_core::OrbResult<()> {
                let call = self.inner.call("ping").arg(seq);
                call.invoke_oneway()
            }
            /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
            pub fn sample(&self, p: &super::Probe, cursor: &i32) -> ::pardis_core::OrbResult<(Reading, i32, [[i32; 2usize]; 2usize],)> {
                let call = self.inner.call("sample").arg(p).arg(cursor);
                let reply = call.invoke()?;
                Ok((reply.scalar::<Reading>(0usize)?, reply.scalar::<i32>(1usize)?, reply.scalar::<[[i32; 2usize]; 2usize]>(2usize)?,))
            }
            /// Non-blocking invocation: returns immediately with futures of the
            /// out arguments and return value (§3.3).
            pub fn sample_nb(&self, p: &super::Probe, cursor: &i32) -> ::pardis_core::OrbResult<SensorSampleFutures> {
                let call = self.inner.call("sample").arg(p).arg(cursor);
                let handle = call.invoke_nb()?;
                Ok(SensorSampleFutures { ret: handle.scalar_future::<Reading>(0usize), cursor: handle.scalar_future::<i32>(1usize), cells: handle.scalar_future::<[[i32; 2usize]; 2usize]>(2usize), handle })
            }
        }
        /// Futures of `Sensor::_get_rate`; all resolve together when the server completes.
        pub struct SensorGetRateFutures {
            /// Completion handle (poll or cancel).
            pub handle: ::pardis_core::InvocationHandle,
            /// Future of the return value.
            pub ret: ::pardis_core::PFuture<i32>,
        }
        impl SensorGetRateFutures {
            /// Have all the futures resolved?
            pub fn resolved(&self) -> bool {
                self.handle.resolved()
            }
        }
        /// Futures of `Sensor::_set_rate`; all resolve together when the server completes.
        pub struct SensorSetRateFutures {
            /// Completion handle (poll or cancel).
            pub handle: ::pardis_core::InvocationHandle,
        }
        impl SensorSetRateFutures {
            /// Have all the futures resolved?
            pub fn resolved(&self) -> bool {
                self.handle.resolved()
            }
        }
        /// Futures of `Sensor::sample`; all resolve together when the server completes.
        pub struct SensorSampleFutures {
            /// Completion handle (poll or cancel).
            pub handle: ::pardis_core::InvocationHandle,
            /// Future of the return value.
            pub ret: ::pardis_core::PFuture<Reading>,
            /// Future of out argument `cursor`.
            pub cursor: ::pardis_core::PFuture<i32>,
            /// Future of out argument `cells`.
            pub cells: ::pardis_core::PFuture<[[i32; 2usize]; 2usize]>,
        }
        impl SensorSampleFutures {
            /// Have all the futures resolved?
            pub fn resolved(&self) -> bool {
                self.handle.resolved()
            }
        }
        /// Implementation trait for IDL interface `sensor` — implement this and
        /// wrap it in [`SensorSkel`] to activate.
        pub trait SensorImpl: Send + Sync + 'static {
            /// IDL operation `_get_rate`.
            fn get_rate(&self, ctx: &::pardis_core::ServantCtx) -> Result<(i32,), String>;
            /// IDL operation `_set_rate`.
            fn set_rate(&self, ctx: &::pardis_core::ServantCtx, value: i32) -> Result<(), String>;
            /// IDL operation `ping`.
            fn ping(&self, ctx: &::pardis_core::ServantCtx, seq: i32) -> Result<(), String>;
            /// IDL operation `sample`.
            /// Raises super::BadProbe (return `Err(exc.into())`).
            fn sample(&self, ctx: &::pardis_core::ServantCtx, p: super::Probe, cursor: i32) -> Result<(Reading, i32, [[i32; 2usize]; 2usize],), ::pardis_core::Raised>;
        }
        /// Servant adapter: decodes requests and calls a [`SensorImpl`].
        pub struct SensorSkel<T: SensorImpl>(pub T);
        impl<T: SensorImpl> ::pardis_core::Servant for SensorSkel<T> {
            fn interface(&self) -> &str {
                "outer::inner::sensor"
            }
            fn dispatch(&self, req: ::pardis_core::ServerRequest<'_>) -> Result<::pardis_core::ServerReply, String> {
                match req.op {
                    "_get_rate" => {
                        let out = self.0.get_rate(req.ctx)?;
                        let mut rep = ::pardis_core::ServerReply::new();
                        rep.push_scalar(&out.0);
                        Ok(rep)
                    }
                    "_set_rate" => {
                        let value: i32 = req.scalar(0usize).map_err(|e| e.to_string())?;
                        let out = self.0.set_rate(req.ctx, value)?;
                        let mut rep = ::pardis_core::ServerReply::new();
                        let _ = out;
                        Ok(rep)
                    }
                    "ping" => {
                        let seq: i32 = req.scalar(0usize).map_err(|e| e.to_string())?;
                        let out = self.0.ping(req.ctx, seq)?;
                        let mut rep = ::pardis_core::ServerReply::new();
                        let _ = out;
                        Ok(rep)
                    }
                    "sample" => {
                        let p: super::Probe = req.scalar(0usize).map_err(|e| e.to_string())?;
                        let cursor: i32 = req.scalar(1usize).map_err(|e| e.to_string())?;
                        let out = match self.0.sample(req.ctx, p, cursor) {
                            Ok(out) => out,
                            Err(raised) => return Ok(::pardis_core::ServerReply::raising(raised)),
                        };
                        let mut rep = ::pardis_core::ServerReply::new();
                        rep.push_scalar(&out.0);
                        rep.push_scalar(&out.1);
                        rep.push_scalar(&out.2);
                        Ok(rep)
                    }
                    other => Err(format!("interface sensor has no operation {other:?}")),
                }
            }
        }
    }
}
