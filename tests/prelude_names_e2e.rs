//! IDL types named `self` and after Rust prelude types compile, under
//! their renamed Rust names, and carry values through a whole invocation,
//! using the stubs generated from `idl/prelude_names.idl`.

use pardis::core::{ClientGroup, Orb, ServantCtx, ServerGroup};
use pardis::generated::prelude_names::{
    Box_, CheckerImpl, CheckerProxy, CheckerSkel, Option_, Result_, Self_, String_,
};
use std::sync::Arc;

struct Checker;

impl CheckerImpl for Checker {
    fn check(&self, _ctx: &ServantCtx, o: Option_, s: Self_) -> Result<(Result_,), String> {
        let full = o.state == Box_::Full;
        let codes: i32 = o.results.iter().map(|r| r.code).sum();
        let text = format!("{}:{}:{full}", o.label.s, o.results.len());
        Ok((Result_ { code: codes + s.v, text },))
    }
}

#[test]
fn renamed_prelude_types_roundtrip() {
    let (orb, host) = Orb::single_host();
    orb.set_local_bypass(false);
    let group = ServerGroup::create(&orb, "checker", host, 1);
    let server = {
        let group = group.clone();
        std::thread::spawn(move || {
            let mut poa = group.attach(0, None);
            poa.activate_single("checker", Arc::new(CheckerSkel(Checker)));
            poa.impl_is_ready();
        })
    };

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let checker = CheckerProxy::bind(&client, "checker").expect("bind the checker");
    let o = Option_ {
        results: vec![Result_ { code: 2, text: "a".into() }, Result_ { code: 3, text: "b".into() }],
        label: String_ { s: "label".into() },
        state: Box_::Full,
    };
    let (r,) = checker.check(&o, &Self_ { v: 10 }).expect("check");
    assert_eq!(r, Result_ { code: 15, text: "label:2:true".into() });

    group.shutdown();
    server.join().expect("server thread");
}
