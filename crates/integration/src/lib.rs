//! Anchor crate for the repository-level integration tests in `tests/`.
//!
//! The test sources live at the workspace root (see the `[[test]]` entries
//! in this crate's manifest) so they can exercise every crate together.

#![forbid(unsafe_code)]
