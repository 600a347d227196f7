//! H2 fixture (helper file): a per-call table the hot root reaches.

pub fn record_op() {
    let mut log = Vec::with_capacity(64);
    log.push(1u64);
}
