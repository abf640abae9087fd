//! Unit and integration tests of the ORB core.

mod assembler_tests;
mod backoff_tests;
mod batch_tests;
mod comm_thread_tests;
mod deferred_tests;
mod dist_tests;
mod dseq_tests;
mod elementwise_plan;
mod orb_tests;
mod protocol_tests;
mod reply_cache_tests;
mod repository_tests;
mod spmd_tests;
mod strided_wire_tests;
mod zero_copy_tests;
