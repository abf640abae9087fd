//! pardis-bench: figure harnesses live in src/bin.
pub mod util;
