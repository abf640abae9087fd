// Generated by pardis-idlc. Do not edit.

/// IDL struct `self`.
#[derive(Debug, Clone, PartialEq)]
pub struct Self_ {
    /// Field `v`.
    pub v: i32,
}
impl ::pardis_cdr::CdrCodec for Self_ {
    fn encode(&self, e: &mut ::pardis_cdr::Encoder) {
        ::pardis_cdr::CdrCodec::encode(&self.v, e);
    }
    fn decode(d: &mut ::pardis_cdr::Decoder) -> Result<Self, ::pardis_cdr::CdrError> {
        Ok(Self_ {
            v: ::pardis_cdr::CdrCodec::decode(d)?,
        })
    }
    fn type_code() -> ::pardis_cdr::TypeCode {
        ::pardis_cdr::TypeCode::Struct {
            name: "self".to_string(),
            fields: ::std::sync::Arc::new(vec![
                ("v".to_string(), <i32 as ::pardis_cdr::CdrCodec>::type_code()),
            ]),
        }
    }
}
/// IDL struct `Result`.
#[derive(Debug, Clone, PartialEq)]
pub struct Result_ {
    /// Field `code`.
    pub code: i32,
    /// Field `text`.
    pub text: String,
}
impl ::pardis_cdr::CdrCodec for Result_ {
    fn encode(&self, e: &mut ::pardis_cdr::Encoder) {
        ::pardis_cdr::CdrCodec::encode(&self.code, e);
        ::pardis_cdr::CdrCodec::encode(&self.text, e);
    }
    fn decode(d: &mut ::pardis_cdr::Decoder) -> Result<Self, ::pardis_cdr::CdrError> {
        Ok(Result_ {
            code: ::pardis_cdr::CdrCodec::decode(d)?,
            text: ::pardis_cdr::CdrCodec::decode(d)?,
        })
    }
    fn type_code() -> ::pardis_cdr::TypeCode {
        ::pardis_cdr::TypeCode::Struct {
            name: "Result".to_string(),
            fields: ::std::sync::Arc::new(vec![
                ("code".to_string(), <i32 as ::pardis_cdr::CdrCodec>::type_code()),
                ("text".to_string(), <String as ::pardis_cdr::CdrCodec>::type_code()),
            ]),
        }
    }
}
/// IDL typedef `Vec`.
pub type Vec_ = Vec<Result_>;
/// IDL struct `String`.
#[derive(Debug, Clone, PartialEq)]
pub struct String_ {
    /// Field `s`.
    pub s: String,
}
impl ::pardis_cdr::CdrCodec for String_ {
    fn encode(&self, e: &mut ::pardis_cdr::Encoder) {
        ::pardis_cdr::CdrCodec::encode(&self.s, e);
    }
    fn decode(d: &mut ::pardis_cdr::Decoder) -> Result<Self, ::pardis_cdr::CdrError> {
        Ok(String_ {
            s: ::pardis_cdr::CdrCodec::decode(d)?,
        })
    }
    fn type_code() -> ::pardis_cdr::TypeCode {
        ::pardis_cdr::TypeCode::Struct {
            name: "String".to_string(),
            fields: ::std::sync::Arc::new(vec![
                ("s".to_string(), <String as ::pardis_cdr::CdrCodec>::type_code()),
            ]),
        }
    }
}
/// IDL enum `Box`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Box_ {
    /// `empty` (discriminant 0).
    Empty,
    /// `full` (discriminant 1).
    Full,
}
impl ::pardis_cdr::CdrCodec for Box_ {
    fn encode(&self, e: &mut ::pardis_cdr::Encoder) {
        e.write_u32(*self as u32);
    }
    fn decode(d: &mut ::pardis_cdr::Decoder) -> Result<Self, ::pardis_cdr::CdrError> {
        match d.read_u32()? {
            0 => Ok(Box_::Empty),
            1 => Ok(Box_::Full),
            other => Err(::pardis_cdr::CdrError::InvalidEnumDiscriminant { name: "Box".to_string(), value: other }),
        }
    }
    fn type_code() -> ::pardis_cdr::TypeCode {
        ::pardis_cdr::TypeCode::Enum {
            name: "Box".to_string(),
            variants: ::std::sync::Arc::new(vec![
                "empty".to_string(),
                "full".to_string(),
            ]),
        }
    }
}
/// IDL struct `Option`.
#[derive(Debug, Clone, PartialEq)]
pub struct Option_ {
    /// Field `results`.
    pub results: Vec<Result_>,
    /// Field `label`.
    pub label: String_,
    /// Field `state`.
    pub state: Box_,
}
impl ::pardis_cdr::CdrCodec for Option_ {
    fn encode(&self, e: &mut ::pardis_cdr::Encoder) {
        ::pardis_cdr::CdrCodec::encode(&self.results, e);
        ::pardis_cdr::CdrCodec::encode(&self.label, e);
        ::pardis_cdr::CdrCodec::encode(&self.state, e);
    }
    fn decode(d: &mut ::pardis_cdr::Decoder) -> Result<Self, ::pardis_cdr::CdrError> {
        Ok(Option_ {
            results: ::pardis_cdr::CdrCodec::decode(d)?,
            label: ::pardis_cdr::CdrCodec::decode(d)?,
            state: ::pardis_cdr::CdrCodec::decode(d)?,
        })
    }
    fn type_code() -> ::pardis_cdr::TypeCode {
        ::pardis_cdr::TypeCode::Struct {
            name: "Option".to_string(),
            fields: ::std::sync::Arc::new(vec![
                ("results".to_string(), <Vec<Result_> as ::pardis_cdr::CdrCodec>::type_code()),
                ("label".to_string(), <String_ as ::pardis_cdr::CdrCodec>::type_code()),
                ("state".to_string(), <Box_ as ::pardis_cdr::CdrCodec>::type_code()),
            ]),
        }
    }
}
/// Default server-side distribution policy declared in the IDL for
/// interface `checker` (pass to `Poa::activate_spmd`).
pub fn checker_default_policy() -> ::pardis_core::DistPolicy {
    let mut policy = ::pardis_core::DistPolicy::new();
    policy
}
/// Client proxy for IDL interface `checker`.
pub struct CheckerProxy {
    inner: ::pardis_core::Proxy,
}
impl CheckerProxy {
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
    pub fn check(&self, o: &Option_, s: &Self_) -> ::pardis_core::OrbResult<(Result_,)> {
        let call = self.inner.call("check").arg(o).arg(s);
        let reply = call.invoke()?;
        Ok((reply.scalar::<Result_>(0usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn check_nb(&self, o: &Option_, s: &Self_) -> ::pardis_core::OrbResult<CheckerCheckFutures> {
        let call = self.inner.call("check").arg(o).arg(s);
        let handle = call.invoke_nb()?;
        Ok(CheckerCheckFutures { ret: handle.scalar_future::<Result_>(0usize), handle })
    }
}
/// Futures of `Checker::check`; all resolve together when the server completes.
pub struct CheckerCheckFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
    /// Future of the return value.
    pub ret: ::pardis_core::PFuture<Result_>,
}
impl CheckerCheckFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Implementation trait for IDL interface `checker` — implement this and
/// wrap it in [`CheckerSkel`] to activate.
pub trait CheckerImpl: Send + Sync + 'static {
    /// IDL operation `check`.
    fn check(&self, ctx: &::pardis_core::ServantCtx, o: Option_, s: Self_) -> Result<(Result_,), String>;
}
/// Servant adapter: decodes requests and calls a [`CheckerImpl`].
pub struct CheckerSkel<T: CheckerImpl>(pub T);
impl<T: CheckerImpl> ::pardis_core::Servant for CheckerSkel<T> {
    fn interface(&self) -> &str {
        "checker"
    }
    fn dispatch(&self, req: ::pardis_core::ServerRequest<'_>) -> Result<::pardis_core::ServerReply, String> {
        match req.op {
            "check" => {
                let o: Option_ = req.scalar(0usize).map_err(|e| e.to_string())?;
                let s: Self_ = req.scalar(1usize).map_err(|e| e.to_string())?;
                let out = self.0.check(req.ctx, o, s)?;
                let mut rep = ::pardis_core::ServerReply::new();
                rep.push_scalar(&out.0);
                Ok(rep)
            }
            other => Err(format!("interface checker has no operation {other:?}")),
        }
    }
}
