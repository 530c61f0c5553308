#![forbid(unsafe_code)]

pub mod items;
pub mod other;

// A re-export is not a use.
pub use items::{only_own_tests, OnlyImpl};
