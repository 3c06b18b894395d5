//! Former X-001 and X-002 cases: an exception is an `#[expect]` with a
//! reason, and an `#[expect]` that matches nothing is reported.

#[allow(clippy::unwrap_used)]
pub fn allowed(v: Option<u32>) -> u32 {
    v.unwrap()
}

#[allow(clippy::unwrap_used, reason = "an allow still hides a stale exception")]
pub fn allowed_with_reason(v: Option<u32>) -> u32 {
    v.unwrap()
}

#[expect(clippy::unwrap_used)]
pub fn expected_without_reason(v: Option<u32>) -> u32 {
    v.unwrap()
}

#[expect(clippy::panic, reason = "nothing here panics any more")]
pub fn stale_expectation() {}

#[expect(
    clippy::expect_used,
    reason = "in-memory serialisation of a derived struct is infallible"
)]
pub fn reasoned(v: Option<u32>) -> u32 {
    v.expect("present")
}
