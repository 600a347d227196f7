// Fixture: H2 must not fire — only the `Vec::`/`String::` path forms
// allocate. A builder named `with_capacity` on another type, and a
// method of that name, are configuration.
// lint: hot-path
fn configure(spec: FlashSpec, bytes: u64) -> FlashSpec {
    let fresh = FlashSpec::with_capacity(bytes);
    spec.with_capacity(fresh.capacity)
}
