//! H2 fixture (entry file): a hot root whose helper — defined in the
//! sibling fixture file — allocates two edges down the call chain. The
//! root itself is clean, so the one finding is purely interprocedural.

// lint: hot-path
pub fn replay_op(&mut self) {
    crate::help::record_op();
}
