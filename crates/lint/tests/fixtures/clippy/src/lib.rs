//! Cases clippy must flag, one module per former stabl-lint family.
//! The `#[cfg(test)]` module must stay silent.

pub mod attributes;
pub mod determinism;
pub mod robustness;

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn test_code_is_exempt() {
        let _started = std::time::Instant::now();
        let m: HashMap<u32, u32> = HashMap::new();
        let v: Option<u32> = m.get(&0).copied().or(Some(1));
        assert_eq!(v.unwrap(), 1);
        assert_eq!(v.expect("present"), 1);
        if v.is_none() {
            panic!("unreachable in this test");
        }
    }
}
