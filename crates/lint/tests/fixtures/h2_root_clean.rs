// Fixture: H2 must not fire — the hot function reuses caller-owned
// scratch, and the identical allocation in the unmarked, uncalled
// function below is out of scope.
// lint: hot-path
fn write_page_hot(buf: &mut [u8], scratch: &mut Vec<u8>) {
    scratch.resize(buf.len(), 0);
    buf.copy_from_slice(scratch);
}

fn cold_setup(len: usize) -> Vec<u8> {
    let mut v = Vec::new();
    v.resize(len, 0);
    v
}
