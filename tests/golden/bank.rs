// Generated by pardis-idlc. Do not edit.

/// IDL exception `insufficient_funds` (usable in `raises` clauses).
#[derive(Debug, Clone, PartialEq)]
pub struct InsufficientFunds {
    /// Member `balance`.
    pub balance: f64,
    /// Member `requested`.
    pub requested: f64,
}
impl ::pardis_cdr::CdrCodec for InsufficientFunds {
    fn encode(&self, e: &mut ::pardis_cdr::Encoder) {
        ::pardis_cdr::CdrCodec::encode(&self.balance, e);
        ::pardis_cdr::CdrCodec::encode(&self.requested, e);
    }
    fn decode(d: &mut ::pardis_cdr::Decoder) -> Result<Self, ::pardis_cdr::CdrError> {
        Ok(InsufficientFunds {
            balance: ::pardis_cdr::CdrCodec::decode(d)?,
            requested: ::pardis_cdr::CdrCodec::decode(d)?,
        })
    }
    fn type_code() -> ::pardis_cdr::TypeCode {
        ::pardis_cdr::TypeCode::Struct {
            name: "insufficient_funds".to_string(),
            fields: ::std::sync::Arc::new(vec![
                ("balance".to_string(), <f64 as ::pardis_cdr::CdrCodec>::type_code()),
                ("requested".to_string(), <f64 as ::pardis_cdr::CdrCodec>::type_code()),
            ]),
        }
    }
}
impl InsufficientFunds {
    /// Exception repository id.
    pub const REPO_ID: &'static str = "insufficient_funds";
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
impl From<InsufficientFunds> for ::pardis_core::Raised {
    fn from(x: InsufficientFunds) -> Self {
        ::pardis_core::Raised::new(InsufficientFunds::REPO_ID, &x)
    }
}
impl ::std::fmt::Display for InsufficientFunds {
    fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
        write!(f, "insufficient_funds: {self:?}")
    }
}
impl ::std::error::Error for InsufficientFunds {}
/// Default server-side distribution policy declared in the IDL for
/// interface `account` (pass to `Poa::activate_spmd`).
pub fn account_default_policy() -> ::pardis_core::DistPolicy {
    let mut policy = ::pardis_core::DistPolicy::new();
    policy
}
/// Client proxy for IDL interface `account`.
pub struct AccountProxy {
    inner: ::pardis_core::Proxy,
}
impl AccountProxy {
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
    pub fn get_balance(&self) -> ::pardis_core::OrbResult<(f64,)> {
        let call = self.inner.call("_get_balance");
        let reply = call.invoke()?;
        Ok((reply.scalar::<f64>(0usize)?,))
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn get_balance_nb(&self) -> ::pardis_core::OrbResult<AccountGetBalanceFutures> {
        let call = self.inner.call("_get_balance");
        let handle = call.invoke_nb()?;
        Ok(AccountGetBalanceFutures { ret: handle.scalar_future::<f64>(0usize), handle })
    }
    /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
    pub fn deposit(&self, amount: &f64) -> ::pardis_core::OrbResult<()> {
        let call = self.inner.call("deposit").arg(amount);
        let reply = call.invoke()?;
        let _ = reply;
        Ok(())
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn deposit_nb(&self, amount: &f64) -> ::pardis_core::OrbResult<AccountDepositFutures> {
        let call = self.inner.call("deposit").arg(amount);
        let handle = call.invoke_nb()?;
        Ok(AccountDepositFutures { handle })
    }
    /// Blocking invocation (SPMD stub: distributed arguments are this thread's views).
    pub fn withdraw(&self, amount: &f64) -> ::pardis_core::OrbResult<()> {
        let call = self.inner.call("withdraw").arg(amount);
        let reply = call.invoke()?;
        let _ = reply;
        Ok(())
    }
    /// Non-blocking invocation: returns immediately with futures of the
    /// out arguments and return value (§3.3).
    pub fn withdraw_nb(&self, amount: &f64) -> ::pardis_core::OrbResult<AccountWithdrawFutures> {
        let call = self.inner.call("withdraw").arg(amount);
        let handle = call.invoke_nb()?;
        Ok(AccountWithdrawFutures { handle })
    }
}
/// Futures of `Account::_get_balance`; all resolve together when the server completes.
pub struct AccountGetBalanceFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
    /// Future of the return value.
    pub ret: ::pardis_core::PFuture<f64>,
}
impl AccountGetBalanceFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Futures of `Account::deposit`; all resolve together when the server completes.
pub struct AccountDepositFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
}
impl AccountDepositFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Futures of `Account::withdraw`; all resolve together when the server completes.
pub struct AccountWithdrawFutures {
    /// Completion handle (poll or cancel).
    pub handle: ::pardis_core::InvocationHandle,
}
impl AccountWithdrawFutures {
    /// Have all the futures resolved?
    pub fn resolved(&self) -> bool {
        self.handle.resolved()
    }
}
/// Implementation trait for IDL interface `account` — implement this and
/// wrap it in [`AccountSkel`] to activate.
pub trait AccountImpl: Send + Sync + 'static {
    /// IDL operation `_get_balance`.
    fn get_balance(&self, ctx: &::pardis_core::ServantCtx) -> Result<(f64,), String>;
    /// IDL operation `deposit`.
    fn deposit(&self, ctx: &::pardis_core::ServantCtx, amount: f64) -> Result<(), String>;
    /// IDL operation `withdraw`.
    /// Raises InsufficientFunds (return `Err(exc.into())`).
    fn withdraw(&self, ctx: &::pardis_core::ServantCtx, amount: f64) -> Result<(), ::pardis_core::Raised>;
}
/// Servant adapter: decodes requests and calls a [`AccountImpl`].
pub struct AccountSkel<T: AccountImpl>(pub T);
impl<T: AccountImpl> ::pardis_core::Servant for AccountSkel<T> {
    fn interface(&self) -> &str {
        "account"
    }
    fn dispatch(&self, req: ::pardis_core::ServerRequest<'_>) -> Result<::pardis_core::ServerReply, String> {
        match req.op {
            "_get_balance" => {
                let out = self.0.get_balance(req.ctx)?;
                let mut rep = ::pardis_core::ServerReply::new();
                rep.push_scalar(&out.0);
                Ok(rep)
            }
            "deposit" => {
                let amount: f64 = req.scalar(0usize).map_err(|e| e.to_string())?;
                let out = self.0.deposit(req.ctx, amount)?;
                let mut rep = ::pardis_core::ServerReply::new();
                let _ = out;
                Ok(rep)
            }
            "withdraw" => {
                let amount: f64 = req.scalar(0usize).map_err(|e| e.to_string())?;
                let out = match self.0.withdraw(req.ctx, amount) {
                    Ok(out) => out,
                    Err(raised) => return Ok(::pardis_core::ServerReply::raising(raised)),
                };
                let mut rep = ::pardis_core::ServerReply::new();
                let _ = out;
                Ok(rep)
            }
            other => Err(format!("interface account has no operation {other:?}")),
        }
    }
}
