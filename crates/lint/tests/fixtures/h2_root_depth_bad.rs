//! H2 regression fixture: the hot function closes an inner block before
//! it allocates. A line-oriented span heuristic that ends the hot span
//! at the first `}` misses the `.to_vec()`; brace-depth tracking from
//! the lexer must keep the span open to the function's own close brace.

// lint: hot-path
pub fn hot_with_inner_block(&mut self) {
    if self.fast_path_ready() {
        self.fast_path();
        return;
    }
    let spill = self.buf.to_vec();
    self.consume(spill);
}
