// Seeded fixture: a miniature metrics/names.rs registry.
pub const SPILL_RUNS: &str = "spill.runs";
pub const REDUCE_SERVICE_US: &str = "reduce.service_us";

pub fn is_execution_shape(name: &str) -> bool {
    name == SPILL_RUNS
}
