//! Former R-001..R-004 cases in library code, and a total alternative
//! that stays silent.

pub fn unwraps(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn expects(v: Option<u32>) -> u32 {
    v.expect("present")
}

pub fn panics() {
    panic!("boom");
}

pub fn todos() {
    todo!()
}

pub fn unimplements() {
    unimplemented!()
}

pub fn exits() {
    std::process::exit(1)
}

pub fn total(v: Option<u32>) -> u32 {
    v.unwrap_or(0)
}
