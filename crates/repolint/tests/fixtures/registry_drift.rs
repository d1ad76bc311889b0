// Seeded fixture: all three counter-registry violation shapes.
pub fn record(c: &Counters, h: &mut Hists) {
    // 1. Recording under a name the registry does not declare.
    c.inc("spill.rogue", 1);
    // 2. A literal duplicating a registered name instead of the constant.
    h.record("reduce.service_us", 42);
}

// 3. An execution-shape classifier defined outside the registry module.
pub fn is_execution_shape(name: &str) -> bool {
    name.starts_with("spill.")
}
