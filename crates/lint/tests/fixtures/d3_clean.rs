// Fixture: D3 must not fire — single-threaded simulator code. Naming a
// Mutex in a comment or string is inert, and `Ordering` alone (the
// cmp kind) is deliberately not flagged. An allowlisted host-side
// atomic (the CLI-flag pattern, e.g. the bench harness's `--smoke`
// switch) passes with its written justification.
fn pick(a: u64, b: u64) -> std::cmp::Ordering {
    let note = "no Mutex here";
    let _ = note;
    a.cmp(&b)
}

// lint: allow(D3): host-side CLI flag set once during argument parsing;
// no simulated-time path reads it.
static FLAG: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
