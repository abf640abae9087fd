//! The compiler pipeline end to end: the `idl/*.idl` files shipped in this
//! repository must compile, the build-time-generated stubs this test
//! binary itself links against must agree with a fresh run of the compiler,
//! and the emitted text is pinned by the committed copies under
//! `tests/golden/`.

use pardis::codegen::{compile_idl, lint_generated_tags, CodegenOptions};
use pardis::idl;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// For each file `build.rs` compiles: its stem, what `build.rs` wrote, and
/// the committed copy under `tests/golden/`.
const GOLDEN: [(&str, &str, &str); 5] = [
    (
        "solvers",
        include_str!(concat!(env!("OUT_DIR"), "/solvers_gen.rs")),
        include_str!("golden/solvers.rs"),
    ),
    ("dna", include_str!(concat!(env!("OUT_DIR"), "/dna_gen.rs")), include_str!("golden/dna.rs")),
    (
        "pipeline",
        include_str!(concat!(env!("OUT_DIR"), "/pipeline_gen.rs")),
        include_str!("golden/pipeline.rs"),
    ),
    (
        "bank",
        include_str!(concat!(env!("OUT_DIR"), "/bank_gen.rs")),
        include_str!("golden/bank.rs"),
    ),
    (
        "prelude_names",
        include_str!(concat!(env!("OUT_DIR"), "/prelude_names_gen.rs")),
        include_str!("golden/prelude_names.rs"),
    ),
];

/// `build.rs`'s regeneration command for each stem, one `stem\tcommand`
/// line per file: the options table lives only in `build.rs`.
const IDLC_COMMANDS: &str = include_str!(concat!(env!("OUT_DIR"), "/idlc_commands.txt"));

/// The file that drives every emitter branch the shipped IDL leaves
/// unvisited, compiled with both package mappings, and its committed output.
const COVERAGE_IDL: &str = "tests/golden/emitter_coverage.idl";
const COVERAGE_GOLDEN: &str = include_str!("golden/emitter_coverage.rs");
const COVERAGE_COMMAND: &str = "cargo run -q -p pardis-codegen --bin pardis-idlc -- \
                                -pooma -hpcxx -o tests/golden/emitter_coverage.rs \
                                tests/golden/emitter_coverage.idl";

/// The coverage file's golden output must also be valid Rust.
#[allow(clippy::all, dead_code, unused_imports, unused_variables, unused_mut)]
mod emitter_coverage {
    include!("golden/emitter_coverage.rs");
}

fn idlc_command(stem: &str) -> &'static str {
    IDLC_COMMANDS
        .lines()
        .find_map(|line| line.strip_prefix(stem)?.strip_prefix('\t'))
        .unwrap_or_else(|| panic!("build.rs wrote no command for {stem}"))
}

/// Byte-for-byte comparison; a mismatch names its first differing line and
/// the command that regenerates the committed copy.
fn assert_golden(stem: &str, emitted: &str, golden: &str, command: &str) {
    if emitted == golden {
        return;
    }
    let line = emitted.lines().zip(golden.lines()).take_while(|(a, b)| a == b).count() + 1;
    panic!(
        "emitted source for {stem} differs from tests/golden/{stem}.rs from line {line}:\n  \
         emitted: {:?}\n  golden:  {:?}\nIf the change is intended, regenerate the copy with\n  \
         {command}\nand review its diff.",
        emitted.lines().nth(line - 1).unwrap_or("<end of file>"),
        golden.lines().nth(line - 1).unwrap_or("<end of file>"),
    );
}

/// Every `.idl` file under `idl/`, by stem.
fn shipped_stems() -> Vec<String> {
    let mut stems: Vec<String> = std::fs::read_dir("idl")
        .expect("read idl/")
        .map(|e| e.expect("idl/ entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "idl"))
        .map(|p| p.file_stem().and_then(|s| s.to_str()).expect("utf-8 stem").to_string())
        .collect();
    stems.sort();
    stems
}

#[test]
fn shipped_idl_files_compile() {
    let stems = shipped_stems();
    assert!(!stems.is_empty(), "idl/ holds IDL files");
    for stem in &stems {
        let file = format!("idl/{stem}.idl");
        let source = read(&file);
        let model = idl::compile(&source)
            .unwrap_or_else(|errs| panic!("{file}: {}", errs[0].render(&source)));
        assert!(!model.interfaces.is_empty(), "{file} declares interfaces");
        assert!(
            GOLDEN.iter().any(|(s, ..)| s == stem),
            "{file} has no golden copy tests/golden/{stem}.rs diffed against what build.rs \
             writes for it: add the file to build.rs's jobs, commit its output and list it in GOLDEN"
        );
    }
}

#[test]
fn build_output_matches_the_golden_copies() {
    for (stem, emitted, golden) in GOLDEN {
        assert_golden(stem, emitted, golden, idlc_command(stem));
    }
}

#[test]
fn emitter_coverage_matches_its_golden_copy() {
    let source = read(COVERAGE_IDL);
    let emitted = compile_idl(&source, &CodegenOptions { pooma: true, hpcxx: true })
        .unwrap_or_else(|errs| panic!("{COVERAGE_IDL}: {}", errs[0].render(&source)));
    assert_golden("emitter_coverage", &emitted, COVERAGE_GOLDEN, COVERAGE_COMMAND);
}

#[test]
fn golden_copies_take_no_reserved_tag_literal() {
    let golden = GOLDEN.iter().map(|&(stem, _, g)| (stem, g));
    for (stem, source) in golden.chain([("emitter_coverage", COVERAGE_GOLDEN)]) {
        let findings = lint_generated_tags(source);
        assert!(findings.is_empty(), "tests/golden/{stem}.rs: {findings:#?}");
    }
}

#[test]
fn fresh_codegen_matches_what_this_test_links_against() {
    // The generated module compiled into `pardis` (via build.rs) exists and
    // its key items are usable — proven by *using* them right here.
    use pardis::generated::solvers::{Matrix, Row, Vector};
    let row: Row = vec![1.0, 2.0];
    let _m: Matrix = pardis::core::DSequence::concentrated(vec![row]);
    let _v: Vector = pardis::core::DSequence::concentrated(vec![1.0f64]);

    // And a fresh compiler run over the same IDL emits those same items.
    let rust = compile_idl(&read("idl/solvers.idl"), &CodegenOptions::default()).unwrap();
    assert!(rust.contains("pub type Matrix"));
    assert!(rust.contains("pub type Vector"));
    assert!(rust.contains("pub struct DirectProxy"));
}

#[test]
fn pipeline_constants_and_bounds_survive() {
    use pardis::generated::pipeline::N;
    assert_eq!(N, 128);
    let rust = compile_idl(&read("idl/pipeline.idl"), &CodegenOptions { pooma: true, hpcxx: true })
        .unwrap();
    assert!(rust.contains("pub const N: i32 = 128;"));
    assert!(rust.contains("show_pooma"), "POOMA mapping stubs emitted");
    assert!(rust.contains("gradient_hpcxx"), "HPC++ mapping stubs emitted");
}

/// Locate the `pardis-idlc` binary next to this test executable, building
/// it if needed.
fn idlc() -> std::path::PathBuf {
    let mut dir = std::env::current_exe().expect("test exe path");
    dir.pop(); // deps/
    dir.pop(); // debug/ or release/
    let exe = dir.join("pardis-idlc");
    if !exe.exists() {
        let status = std::process::Command::new(env!("CARGO"))
            .args(["build", "-p", "pardis-codegen", "--bin", "pardis-idlc"])
            .status()
            .expect("cargo build pardis-idlc");
        assert!(status.success(), "building pardis-idlc failed");
    }
    exe
}

#[test]
fn idlc_cli_compiles_the_shipped_files() {
    // Drive the actual binary, as a user would.
    let out = std::process::Command::new(idlc())
        .args(["-pooma", "-hpcxx", "idl/pipeline.idl"])
        .output()
        .expect("run pardis-idlc");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let rust = String::from_utf8(out.stdout).unwrap();
    assert!(rust.contains("pub struct FieldOperationsProxy"));
}

#[test]
fn idlc_cli_reports_errors_with_location() {
    let dir = std::env::temp_dir().join("pardis_idlc_err_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.idl");
    std::fs::write(&bad, "interface x { void f(in nosuch t); };").unwrap();
    let out = std::process::Command::new(idlc()).arg(&bad).output().expect("run pardis-idlc");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown type"), "{stderr}");
    assert!(stderr.contains("line 1"), "{stderr}");
}
