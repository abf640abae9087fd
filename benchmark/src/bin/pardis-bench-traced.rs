//! The traced binary: spans, allocation counts and the per-layer metrics.

use pardis_benchmark::alloc_count::Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn main() -> std::process::ExitCode {
    pardis_benchmark::main_with(true)
}
