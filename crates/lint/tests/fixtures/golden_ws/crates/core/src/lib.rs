//! Fixture crate: deterministic violations for the golden JSON test.

pub fn entry(values: &[u64]) -> f64 {
    scale(pick(values))
}

fn pick(values: &[u64]) -> u64 {
    values.first().copied().unwrap()
}

fn scale(n: u64) -> f64 {
    n as f64
}

fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt() {
        assert_eq!(super::pick(&[1]), 1);
    }
}
