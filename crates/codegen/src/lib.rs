//! pardis-codegen — the PARDIS IDL compiler back end.
//!
//! "The IDL compiler translates the specifications of objects into 'stub'
//! code containing calls to the ORB" (§2.2). This crate turns the resolved
//! [`Model`](pardis_idl::Model) into Rust source:
//!
//! * data types — Rust structs/enums/aliases with
//!   `CdrCodec` (pardis-cdr) marshaling (including the
//!   automatically generated marshaling for dynamically-sized nested
//!   structures that §4.1 highlights);
//! * **client proxies** — for every operation a blocking stub (a send-only
//!   one for `oneway` operations), a non-blocking `_nb` stub returning
//!   futures (§3.3), and — for operations with distributed arguments — the
//!   second, non-distributed `_single` stub PARDIS generates for single
//!   clients (§3.1);
//! * **server skeletons** — an `…Impl` trait plus an `…Skel` adapter
//!   implementing `pardis_core::Servant`;
//! * **pragma mappings** — with [`CodegenOptions::pooma`] /
//!   [`CodegenOptions::hpcxx`] enabled (the paper's `-pooma` / `-hpcxx`
//!   compiler options), extra blocking and non-blocking stubs that marshal
//!   straight from `pooma_rs::Field2D` / `pstl_rs::DistVector` (§3.4, §4.3).
//!
//! Every proxy stub comes from one emitter, which writes the signature and
//! the pragma pre-conversion once for all kinds and waiting modes; only the
//! call's tail differs between blocking, non-blocking and oneway stubs.
//!
//! The emitted source is plain text meant to be `include!`d (typically from
//! a `build.rs`, as the `pardis` facade crate does) or written by the
//! `pardis-idlc` binary. Its text is pinned: the repository commits the
//! output for every shipped IDL file, and for an IDL file that reaches
//! every emitter branch, under `tests/golden/`, and
//! `tests/idl_compiler_e2e.rs` diffs the compiler's output against those
//! copies byte for byte.

mod emit;
mod names;

pub use emit::generate;

use pardis_idl::Diagnostic;

/// What the compiler should emit, mirroring the paper's command-line
/// options.
#[derive(Debug, Clone, Default)]
pub struct CodegenOptions {
    /// Generate `*_pooma` stubs for `#pragma POOMA:…`-annotated dsequences
    /// (the `-pooma` option).
    pub pooma: bool,
    /// Generate `*_hpcxx` stubs for `#pragma HPC++:…`-annotated dsequences
    /// (the `-hpcxx` option).
    pub hpcxx: bool,
}

/// Front end + back end in one call: IDL source text to Rust source text.
pub fn compile_idl(source: &str, opts: &CodegenOptions) -> Result<String, Vec<Diagnostic>> {
    let model = pardis_idl::compile(source)?;
    Ok(generate(&model, opts))
}

/// Audit generated Rust source for integer literals inside the reserved
/// ORB tag band (`pardis_rts::tags::RESERVED_TAG_RANGE`).
///
/// Stubs must obtain reserved tags through the `tags::` registry, never as
/// literals — a literal in that band is how a tag-discipline regression
/// slips past review. Returns one description per offending literal;
/// empty means clean. Part of the `pardisc lint` gate.
pub fn lint_generated_tags(rust_src: &str) -> Vec<String> {
    let mut findings = Vec::new();
    for (lineno, line) in rust_src.lines().enumerate() {
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if !bytes[i].is_ascii_digit()
                || (i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'))
            {
                i += 1;
                continue;
            }
            // A maximal numeric-literal-shaped run: digits, hex digits,
            // `_` separators, and a possible 0x/0b/0o prefix.
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let token = &line[start..i];
            // Drop separators, then read digits up to any type suffix
            // (u64, i64, usize, …).
            let no_sep: String = token.chars().filter(|c| *c != '_').collect();
            let parsed = if let Some(hex) = no_sep.strip_prefix("0x") {
                let digits: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
                u64::from_str_radix(&digits, 16).ok()
            } else {
                let digits: String = no_sep.chars().take_while(|c| c.is_ascii_digit()).collect();
                digits.parse::<u64>().ok()
            };
            if let Some(v) = parsed {
                if pardis_rts::tags::is_reserved(v) {
                    findings.push(format!(
                        "line {}: literal {token} lies in the reserved ORB tag band \
                         ({:#x}..) — use the `tags::` registry instead",
                        lineno + 1,
                        pardis_rts::tags::PARDIS_BASE,
                    ));
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests;
