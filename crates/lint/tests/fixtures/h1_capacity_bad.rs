// Fixture: H1 must fire twice — a table and a string sized and built
// from scratch on every call of a hot function.
// lint: hot-path
fn pick(n: usize) -> usize {
    let mut cdf = Vec::with_capacity(n);
    cdf.push(1.0f64);
    cdf.len()
}

// lint: hot-path
fn label(n: usize) -> usize {
    let s = String::with_capacity(n);
    s.capacity()
}
