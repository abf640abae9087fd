//! Build script of the `pardis` facade crate: runs the PARDIS IDL compiler
//! on every interface definition under `idl/` and drops the generated Rust
//! stubs/skeletons into `$OUT_DIR`, where `src/lib.rs` includes them. This
//! is the paper's figure-1 pipeline — IDL specification → compiler → stub
//! code linked with client and server — wired into Cargo.
//!
//! Next to the stubs it writes `idlc_commands.txt`: for each file, the
//! `pardis-idlc` command that regenerates its committed copy under
//! `tests/golden/`, which `tests/idl_compiler_e2e.rs` diffs byte for byte.

use pardis_codegen::{compile_idl, CodegenOptions};
use std::path::Path;

fn main() {
    println!("cargo::rerun-if-changed=idl");
    let out_dir = std::env::var("OUT_DIR").expect("OUT_DIR set by cargo");

    // (file, options) — pipeline.idl is compiled with both package mappings
    // enabled, like the paper's `-pooma` / `-hpcxx` invocations.
    let jobs = [
        ("idl/solvers.idl", CodegenOptions::default()),
        ("idl/dna.idl", CodegenOptions::default()),
        ("idl/pipeline.idl", CodegenOptions { pooma: true, hpcxx: true }),
        ("idl/bank.idl", CodegenOptions::default()),
        ("idl/prelude_names.idl", CodegenOptions::default()),
    ];

    let mut commands = String::new();
    for (input, opts) in jobs {
        let source =
            std::fs::read_to_string(input).unwrap_or_else(|e| panic!("cannot read {input}: {e}"));
        let rust = match compile_idl(&source, &opts) {
            Ok(rust) => rust,
            Err(diags) => {
                for d in &diags {
                    eprintln!("{}", d.render(&source));
                }
                panic!("IDL compilation of {input} failed");
            }
        };
        let stem =
            Path::new(input).file_stem().and_then(|s| s.to_str()).expect("idl file has a stem");
        let out = Path::new(&out_dir).join(format!("{stem}_gen.rs"));
        std::fs::write(&out, rust).unwrap_or_else(|e| panic!("cannot write {out:?}: {e}"));
        let pooma = if opts.pooma { "-pooma " } else { "" };
        let hpcxx = if opts.hpcxx { "-hpcxx " } else { "" };
        commands.push_str(&format!(
            "{stem}\tcargo run -q -p pardis-codegen --bin pardis-idlc -- \
             {pooma}{hpcxx}-o tests/golden/{stem}.rs {input}\n"
        ));
    }
    let out = Path::new(&out_dir).join("idlc_commands.txt");
    std::fs::write(&out, commands).unwrap_or_else(|e| panic!("cannot write {out:?}: {e}"));
}
