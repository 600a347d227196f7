//! H2 fixture (helper with a site allow): the log's allocation carries
//! an argued allow on its own line, so it is accepted; the copy below it
//! has none and must still fire. A site allow covers one line, not the
//! whole function.

pub fn record_op() {
    // lint: allow(H2): the log is created once per replay and reused for every op after
    let mut log = Vec::new();
    log.push(1u64);
    let copy = log.clone();
    copy.len();
}
