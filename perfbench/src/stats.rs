//! Sample statistics the benchmark reports, and its seeded input generator.

/// The number of samples a reported percentile must leave beyond it.
const MIN_BEYOND: usize = 10;

/// A percentile read from a sample, with the count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The order statistic at the requested quantile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub count: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// The `q`-quantile (nearest rank, 1-based `ceil(q·n)`) of `samples`,
/// refused unless at least [`MIN_BEYOND`] samples lie beyond that rank.
/// A p99 therefore needs at least 1000 samples.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, String> {
    let n = samples.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return Err(format!("no p{} over {n} samples", q * 100.0));
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples leaves {beyond} beyond it; at least {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        count: n,
        beyond,
    })
}

/// The median (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// `--seed` alone and never on the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        let i = (self.next_u64() % n as u64) as usize;
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        let err = percentile(&samples, 0.99).unwrap_err();
        assert!(err.contains("leaves 9 beyond"), "{err}");

        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&samples, 0.99).unwrap();
        assert_eq!(
            p,
            Percentile {
                value: 990.0,
                count: 1000,
                beyond: 10
            }
        );
    }

    #[test]
    fn median_percentile_reports_its_count() {
        let samples = [
            5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0, 12.0, 0.0, 13.0, 14.0, 15.0,
            16.0, 17.0, 18.0, 19.0, 20.0,
        ];
        let p = percentile(&samples, 0.5).unwrap();
        assert_eq!((p.value, p.count, p.beyond), (10.0, 21, 10));
        assert!(
            percentile(&samples[..19], 0.5).is_err(),
            "19 samples leave 9 beyond the median"
        );
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rng_streams_repeat_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
