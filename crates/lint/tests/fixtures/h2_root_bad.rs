// Fixture: H2 must fire exactly once — an allocation inside a
// hot-path function's own body.
// lint: hot-path
fn write_page_hot(buf: &mut [u8]) {
    let scratch = vec![0u8; buf.len()];
    buf.copy_from_slice(&scratch);
}
