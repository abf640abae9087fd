// Generated by pardis-idlc. Do not edit.

/// IDL typedef `dna_list`.
pub type DnaList = Vec<String>;
/// IDL enum `status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// `done` (discriminant 0).
    Done,
    /// `working` (discriminant 1).
    Working,
}
impl ::pardis_cdr::CdrCodec for Status {
    fn encode(&self, e: &mut ::pardis_cdr::Encoder) {
        e.write_u32(*self as u32);
    }
    fn decode(d: &mut ::pardis_cdr::Decoder) -> Result<Self, ::pardis_cdr::CdrError> {
        match d.read_u32()? {
            0 => Ok(Status::Done),
            1 => Ok(Status::Working),
            other => Err(::pardis_cdr::CdrError::InvalidEnumDiscriminant { name: "status".to_string(), value: other }),
        }
    }
    fn type_code() -> ::pardis_cdr::TypeCode {
        ::pardis_cdr::TypeCode::Enum {
            name: "status".to_string(),
            variants: ::std::sync::Arc::new(vec![
                "done".to_string(),
                "working".to_string(),
            ]),
        }
    }
}
/// Default server-side distribution policy declared in the IDL for
/// interface `list_server` (pass to `Poa::activate_spmd`).
pub fn list_server_default_policy() -> ::pardis_core::DistPolicy {
    let mut policy = ::pardis_core::DistPolicy::new();
    policy
}
/// Client proxy for IDL interface `list_server`.
pub struct ListServerProxy {
    inner: ::pardis_core::Proxy,
}
impl ListServerProxy {
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
    pub fn match_(&self, s: &String) -> ::pardis_core::OrbResult<(Vec<String>,)> {
        let call = self.inner.call("match").arg(s);
        let reply = call.invoke()?;
        Ok((reply.scalar::<Vec<String>>(0usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn match_nb(&self, s: &String) -> ::pardis_core::OrbResult<ListServerMatchFutures> {
        let call = self.inner.call("match").arg(s);
        let handle = call.invoke_nb()?;
        Ok(ListServerMatchFutures { l: handle.scalar_future::<Vec<String>>(0usize), handle })
    }
}
/// Futures of `ListServer::match`; all resolve together when the server completes.
pub struct ListServerMatchFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
    /// Future of out argument `l`.
    pub l: ::pardis_core::PFuture<Vec<String>>,
}
impl ListServerMatchFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Implementation trait for IDL interface `list_server` — implement this and
/// wrap it in [`ListServerSkel`] to activate.
pub trait ListServerImpl: Send + Sync + 'static {
    /// IDL operation `match`.
    fn match_(&self, ctx: &::pardis_core::ServantCtx, s: String) -> Result<(Vec<String>,), String>;
}
/// Servant adapter: decodes requests and calls a [`ListServerImpl`].
pub struct ListServerSkel<T: ListServerImpl>(pub T);
impl<T: ListServerImpl> ::pardis_core::Servant for ListServerSkel<T> {
    fn interface(&self) -> &str {
        "list_server"
    }
    fn dispatch(&self, req: ::pardis_core::ServerRequest<'_>) -> Result<::pardis_core::ServerReply, String> {
        match req.op {
            "match" => {
                let s: String = req.scalar(0usize).map_err(|e| e.to_string())?;
                let out = self.0.match_(req.ctx, s)?;
                let mut rep = ::pardis_core::ServerReply::new();
                rep.push_scalar(&out.0);
                Ok(rep)
            }
            other => Err(format!("interface list_server has no operation {other:?}")),
        }
    }
}
/// Default server-side distribution policy declared in the IDL for
/// interface `dna_db` (pass to `Poa::activate_spmd`).
pub fn dna_db_default_policy() -> ::pardis_core::DistPolicy {
    let mut policy = ::pardis_core::DistPolicy::new();
    policy
}
/// Client proxy for IDL interface `dna_db`.
pub struct DnaDbProxy {
    inner: ::pardis_core::Proxy,
}
impl DnaDbProxy {
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
    pub fn search(&self, s: &String) -> ::pardis_core::OrbResult<(Status,)> {
        let call = self.inner.call("search").arg(s);
        let reply = call.invoke()?;
        Ok((reply.scalar::<Status>(0usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn search_nb(&self, s: &String) -> ::pardis_core::OrbResult<DnaDbSearchFutures> {
        let call = self.inner.call("search").arg(s);
        let handle = call.invoke_nb()?;
        Ok(DnaDbSearchFutures { ret: handle.scalar_future::<Status>(0usize), handle })
    }
}
/// Futures of `DnaDb::search`; all resolve together when the server completes.
pub struct DnaDbSearchFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
    /// Future of the return value.
    pub ret: ::pardis_core::PFuture<Status>,
}
impl DnaDbSearchFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Implementation trait for IDL interface `dna_db` — implement this and
/// wrap it in [`DnaDbSkel`] to activate.
pub trait DnaDbImpl: Send + Sync + 'static {
    /// IDL operation `search`.
    fn search(&self, ctx: &::pardis_core::ServantCtx, s: String) -> Result<(Status,), String>;
}
/// Servant adapter: decodes requests and calls a [`DnaDbImpl`].
pub struct DnaDbSkel<T: DnaDbImpl>(pub T);
impl<T: DnaDbImpl> ::pardis_core::Servant for DnaDbSkel<T> {
    fn interface(&self) -> &str {
        "dna_db"
    }
    fn dispatch(&self, req: ::pardis_core::ServerRequest<'_>) -> Result<::pardis_core::ServerReply, String> {
        match req.op {
            "search" => {
                let s: String = req.scalar(0usize).map_err(|e| e.to_string())?;
                let out = self.0.search(req.ctx, s)?;
                let mut rep = ::pardis_core::ServerReply::new();
                rep.push_scalar(&out.0);
                Ok(rep)
            }
            other => Err(format!("interface dna_db has no operation {other:?}")),
        }
    }
}
