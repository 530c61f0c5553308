// Flagged: only this file's tests call it.
pub fn only_own_tests() -> u32 {
    1
}

// Flagged: named only by its own impl blocks and this file's tests.
pub struct OnlyImpl;

impl Default for OnlyImpl {
    fn default() -> OnlyImpl {
        OnlyImpl
    }
}

// Reached from the integration test in `tests/`.
pub fn used_by_integration_test() -> ReturnType {
    ReturnType
}

// Reached as the return type of a reached pub fn in this file.
pub struct ReturnType;

// Reached from another file's unit tests.
pub fn used_by_other_unit_tests() -> u32 {
    2
}

// Reached from a DESIGN.md code span.
pub fn cited_in_design() -> u32 {
    3
}

// Dead, but `other.rs` declares and calls a namesake: a collision hides it.
pub fn collide() -> u32 {
    4
}

// Not judged: narrower than bare `pub`.
pub(crate) fn restricted() -> u32 {
    5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_tests_do_not_count() {
        let _ = OnlyImpl::default();
        assert_eq!(only_own_tests() + collide() + restricted(), 10);
    }
}
