use crate::{compile_idl, CodegenOptions};

const SOLVERS: &str = r#"
typedef sequence<double> row;
typedef dsequence<row> matrix;
typedef dsequence<double> vector;
interface direct {
    void solve(in matrix A, in vector B, out vector X);
};
interface iterative {
    void solve(in double tol, in matrix A, in vector B, out vector X);
};
"#;

const PIPELINE: &str = r#"
const long N = 128;
#pragma HPC++:vector
#pragma POOMA:field
typedef dsequence<double, N*N, BLOCK, BLOCK> field;
interface visualizer {
    void show(in field myfield);
};
interface field_operations {
    void gradient(in field myfield);
};
"#;

fn gen(src: &str) -> String {
    compile_idl(src, &CodegenOptions::default()).expect("compile")
}

#[test]
fn emits_proxies_skeletons_and_aliases() {
    let rust = gen(SOLVERS);
    for needle in [
        "pub type Matrix = ::pardis_core::DSequence<Vec<f64>>;",
        "pub type Row = Vec<f64>;",
        "pub struct DirectProxy",
        "pub fn spmd_bind(",
        "pub fn solve(&self,",
        "pub fn solve_nb(&self,",
        "pub fn solve_single(&self,",
        "pub trait DirectImpl: Send + Sync + 'static",
        "pub struct DirectSkel<T: DirectImpl>(pub T);",
        "impl<T: DirectImpl> ::pardis_core::Servant for DirectSkel<T>",
        "pub struct IterativeProxy",
        "fn interface(&self) -> &str",
        "\"direct\"",
    ] {
        assert!(rust.contains(needle), "missing {needle:?} in:\n{rust}");
    }
}

#[test]
fn wire_layout_indices_are_stable() {
    let rust = gen(SOLVERS);
    // iterative.solve: tol is scalar slot 0; A, B are dseq in 0, 1; X is
    // dseq out ordinal 0.
    assert!(rust.contains("req.scalar(0usize)"), "{rust}");
    assert!(rust.contains("req.dseq(0usize)"), "{rust}");
    assert!(rust.contains("req.dseq(1usize)"), "{rust}");
    assert!(rust.contains("reply.dseq::<f64>(0usize)?"), "{rust}");
}

#[test]
fn nonblocking_stub_returns_futures_struct() {
    let rust = gen(SOLVERS);
    assert!(rust.contains("pub struct DirectSolveFutures"), "{rust}");
    assert!(rust.contains("pub x: ::pardis_core::DSeqFuture<f64>"), "{rust}");
    assert!(rust.contains("pub handle: ::pardis_core::InvocationHandle"), "{rust}");
    assert!(rust.contains("pub fn resolved(&self) -> bool"), "{rust}");
}

#[test]
fn single_stub_uses_whole_sequences() {
    let rust = gen(SOLVERS);
    assert!(rust.contains("a: Vec<Vec<f64>>"), "{rust}");
    assert!(rust.contains(".dseq_in_full(a)"), "{rust}");
    assert!(rust.contains(".take_local()"), "{rust}");
}

#[test]
fn pragma_stubs_only_with_options() {
    let plain = gen(PIPELINE);
    assert!(!plain.contains("_pooma"), "no -pooma option given");
    assert!(!plain.contains("_hpcxx"), "no -hpcxx option given");

    let pooma =
        compile_idl(PIPELINE, &CodegenOptions { pooma: true, hpcxx: false }).expect("compile");
    assert!(pooma.contains("pub fn show_pooma(&self, myfield: &::pooma_rs::Field2D)"), "{pooma}");
    assert!(pooma.contains("myfield.to_dseq()"), "{pooma}");
    assert!(!pooma.contains("_hpcxx"));

    let both =
        compile_idl(PIPELINE, &CodegenOptions { pooma: true, hpcxx: true }).expect("compile");
    assert!(
        both.contains("pub fn gradient_hpcxx(&self, myfield: &::pstl_rs::DistVector<f64>)"),
        "{both}"
    );
}

#[test]
fn oneway_ops_have_no_reply_handling() {
    let rust = gen("interface fire { oneway void shoot(in long x); };");
    assert!(rust.contains("call.invoke_oneway()"), "{rust}");
    assert!(!rust.contains("shoot_nb"), "oneway ops get no futures stub:\n{rust}");
}

#[test]
fn enums_and_structs_get_codecs() {
    let rust = gen(r#"
        enum status { done, working };
        struct point { double x; double y; };
        interface q { status poll(in point p); };
        "#);
    for needle in [
        "pub enum Status {",
        "Done,",
        "impl ::pardis_cdr::CdrCodec for Status",
        "pub struct Point {",
        "pub x: f64,",
        "impl ::pardis_cdr::CdrCodec for Point",
        "InvalidEnumDiscriminant",
    ] {
        assert!(rust.contains(needle), "missing {needle:?} in:\n{rust}");
    }
}

#[test]
fn modules_nest_and_cross_reference() {
    let rust = gen(r#"
        module math {
            typedef dsequence<double> vec;
            interface adder { void add(in vec a, out vec c); };
        };
        module user {
            interface consumer { void eat(in math::vec v); };
        };
        "#);
    assert!(rust.contains("pub mod math {"), "{rust}");
    assert!(rust.contains("pub mod user {"), "{rust}");
    assert!(rust.contains("pub struct AdderProxy"), "{rust}");
}

#[test]
fn default_policy_reflects_idl_server_dists() {
    let rust = gen(r#"
        typedef dsequence<double, 1024, BLOCK, CONCENTRATED> v;
        interface s { void f(in v data); };
        "#);
    assert!(rust.contains("pub fn s_default_policy()"), "{rust}");
    assert!(
        rust.contains("policy.set(\"f\", 0u32, ::pardis_core::Distribution::Concentrated(0));"),
        "{rust}"
    );
}

#[test]
fn keyword_identifiers_are_escaped() {
    let rust = gen("interface list_server { void match(in string s, out sequence<string> l); };");
    assert!(rust.contains("pub fn match_("), "{rust}");
    assert!(rust.contains("\"match\""), "wire name keeps the IDL spelling: {rust}");
    // Reserved words are escaped as keywords are.
    let rust = gen("interface k { void do(in long final); };");
    assert!(rust.contains("pub fn do_(") && rust.contains("final_: i32"), "{rust}");
    assert!(rust.contains("\"do\""), "wire name keeps the IDL spelling: {rust}");
}

#[test]
fn inherited_ops_appear_in_derived_proxy() {
    let rust = gen(r#"
        interface base { void ping(); };
        interface derived : base { void pong(); };
        "#);
    // DerivedProxy must offer both ping and pong.
    let derived_start = rust.find("pub struct DerivedProxy").expect("derived proxy");
    let tail = &rust[derived_start..];
    assert!(tail.contains("pub fn ping("), "{tail}");
    assert!(tail.contains("pub fn pong("), "{tail}");
}

#[test]
fn inout_params_are_both_in_and_out() {
    let rust = gen("interface c { long bump(inout long counter); };");
    // counter is scalar in slot 0 and out slot 1 (ret is slot 0).
    assert!(rust.contains("req.scalar(0usize)"), "{rust}");
    assert!(rust.contains("reply.scalar::<i32>(1usize)?"), "{rust}");
    assert!(rust.contains("reply.scalar::<i32>(0usize)?"), "{rust}");
}

#[test]
fn arrays_map_to_rust_arrays() {
    let rust = gen(r#"
        typedef double triple[3];
        struct probe { double position[3]; };
        interface sensor { void report(in triple t, in probe p); };
        "#);
    assert!(rust.contains("pub type Triple = [f64; 3usize];"), "{rust}");
    assert!(rust.contains("pub position: [f64; 3usize],"), "{rust}");
}

#[test]
fn exceptions_generate_typed_errors() {
    let rust = gen(r#"
        exception overflow { long max; };
        interface counter { void bump(in long by) raises(overflow); };
        "#);
    for needle in [
        "pub struct Overflow {",
        "impl ::pardis_cdr::CdrCodec for Overflow",
        r#"pub const REPO_ID: &'static str = "overflow";"#,
        "pub fn from_error(e: &::pardis_core::OrbError) -> Option<Self>",
        "impl From<Overflow> for ::pardis_core::Raised",
        "impl ::std::error::Error for Overflow {}",
        "-> Result<(), ::pardis_core::Raised>;",
        "Err(raised) => return Ok(::pardis_core::ServerReply::raising(raised)),",
    ] {
        assert!(rust.contains(needle), "missing {needle:?} in:\n{rust}");
    }
    // Ops without raises keep the plain String error type.
    let plain = gen("interface p { void f(); };");
    assert!(plain.contains("-> Result<(), String>;"), "{plain}");
}

#[test]
fn attributes_generate_accessor_stubs() {
    let rust = gen(r#"
        interface thermostat {
            attribute double target;
            readonly attribute double current;
        };
        "#);
    assert!(rust.contains("pub fn get_target(&self)"), "{rust}");
    assert!(rust.contains("pub fn set_target(&self, value: &f64)"), "{rust}");
    assert!(rust.contains("pub fn get_current(&self)"), "{rust}");
    assert!(!rust.contains("pub fn set_current"), "readonly has no setter: {rust}");
    // Wire names keep the CORBA convention.
    assert!(rust.contains(r#""_get_target""#), "{rust}");
    assert!(rust.contains(r#""_set_target""#), "{rust}");
}

#[test]
fn generated_code_is_balanced() {
    // Cheap structural sanity on every fixture: braces and parens balance.
    for src in [SOLVERS, PIPELINE] {
        let rust = compile_idl(src, &CodegenOptions { pooma: true, hpcxx: true }).unwrap();
        let braces: i64 = rust
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(braces, 0, "unbalanced braces");
        let parens: i64 = rust
            .chars()
            .map(|c| match c {
                '(' => 1,
                ')' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(parens, 0, "unbalanced parens");
    }
}

#[test]
fn generated_stubs_carry_no_reserved_tag_literals() {
    // The repo-level tag-discipline audit: stubs emitted from every shipped
    // IDL file (all variants on) must obtain ORB tags only through the
    // `tags::` registry, never as literals in the reserved band.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../idl");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("idl/ directory exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "idl") {
            let src = std::fs::read_to_string(&path).unwrap();
            let rust = compile_idl(&src, &CodegenOptions { pooma: true, hpcxx: true }).unwrap();
            let hits = crate::lint_generated_tags(&rust);
            assert!(hits.is_empty(), "{path:?} generated reserved-band literals: {hits:?}");
            checked += 1;
        }
    }
    assert!(checked >= 4, "expected the four shipped IDL files, found {checked}");
}

#[test]
fn tag_lint_flags_reserved_band_literals() {
    let dirty = "let t: u64 = 0x4000_0000_0000_00F0;\nsend(to, 4611686018427387911u64, m);\n";
    let hits = crate::lint_generated_tags(dirty);
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits[0].contains("line 1"));
    assert!(hits[1].contains("line 2"));
    // Tags below the band and ordinary numbers pass.
    assert!(crate::lint_generated_tags("let x = 1024; let y = 0xFFFF;").is_empty());
}

#[test]
fn errors_propagate_from_front_end() {
    let errs = compile_idl("interface i { void f(in nosuch x); };", &CodegenOptions::default())
        .unwrap_err();
    assert!(errs.iter().any(|e| e.message.contains("unknown type")));
}

mod property {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Generation never panics and stays brace-balanced for random
        /// op/param shapes.
        #[test]
        fn random_interfaces_generate(
            n_ops in 1usize..5,
            n_params in 0usize..4,
            seed in any::<u32>(),
        ) {
            let prims = ["long", "double", "string", "boolean", "octet"];
            let mut src = String::from("typedef dsequence<double> dv;\ninterface rand_if {\n");
            for i in 0..n_ops {
                let ret = prims[(seed as usize + i) % prims.len()];
                let mut params = Vec::new();
                for j in 0..n_params {
                    let dir = ["in", "out"][(seed as usize + i + j) % 2];
                    let ty = if (seed as usize + j).is_multiple_of(3) { "dv" } else { prims[j % prims.len()] };
                    params.push(format!("{dir} {ty} p{j}"));
                }
                src.push_str(&format!("  {ret} op{i}({});\n", params.join(", ")));
            }
            src.push_str("};\n");
            let rust = compile_idl(&src, &CodegenOptions::default()).expect("compile");
            let braces: i64 = rust.chars().map(|c| match c { '{' => 1, '}' => -1, _ => 0 }).sum();
            prop_assert_eq!(braces, 0);
            prop_assert!(rust.contains("pub struct RandIfProxy"));
        }
    }
}
