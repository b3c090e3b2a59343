//! Shared experiment utilities: log–log exponent fits and table output.

/// Least-squares slope of `log y` against `log x` — the empirical
/// exponent `b` in `y ≈ a·x^b`.
///
/// # Panics
///
/// Panics if fewer than two points are given or any coordinate is
/// non-positive.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| {
            assert!(x > 0.0 && y > 0.0, "coordinates must be positive");
            (x.ln(), y.ln())
        })
        .collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Prints a section banner.
pub fn banner(id: &str, claim: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{id}: {claim}");
    println!("{}", "=".repeat(78));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_recovers_exponent() {
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|i| {
                let x = (i * 10) as f64;
                (x, 3.0 * x.powf(1.7))
            })
            .collect();
        assert!((loglog_slope(&pts) - 1.7).abs() < 1e-9);
    }
}
