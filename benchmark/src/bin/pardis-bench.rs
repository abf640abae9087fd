//! The untraced binary: end-to-end metrics, no span, the system allocator.

fn main() -> std::process::ExitCode {
    pardis_benchmark::main_with(false)
}
