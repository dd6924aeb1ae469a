//! Sample statistics and failure accounting shared by every workload.

use std::collections::BTreeMap;

/// The median of `samples` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples that must lie beyond a tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the value, which percentile it is, and how many
/// samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at `percentile`.
    pub value: f64,
    /// Nearest-rank percentile of `value`.
    pub percentile: f64,
    /// Samples ranked beyond `value`.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
    /// Blocks the samples were cut into ([`blocked_tail`]); 1 for [`tail`].
    pub blocks: usize,
}

/// The highest nearest-rank percentile that has at least
/// [`TAIL_BEYOND`] samples beyond it: the sample of rank `n − 10`, the
/// `100·(n − 10)/n`-th percentile. With 20 samples or fewer that
/// percentile is at or below the median (or does not exist), so the
/// tail is the upper median, rank `⌊n/2⌋ + 1`: a short run shows no
/// tail apart from its median.
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            beyond: 0,
            samples: 0,
            blocks: 1,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n.saturating_sub(TAIL_BEYOND).max(n / 2 + 1);
    Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
        samples: n,
        blocks: 1,
    }
}

/// Samples per block of [`blocked_tail`].
pub const TAIL_BLOCK: usize = 1000;

/// The tail of a long run: the samples, in the order they were taken,
/// cut into consecutive blocks of [`TAIL_BLOCK`] (a short remainder is
/// dropped), the [`tail`] of each block (its p99), and the median of
/// those. Over a whole run of thousands of samples the [`tail`] rule
/// picks the eleventh-worst sample, which a handful of host stalls
/// decide; the median over blocks keeps the rule's ten samples beyond
/// per block and follows the run, not its worst moment. With fewer than
/// two full blocks it is the [`tail`] of every sample.
pub fn blocked_tail(samples: &[f64]) -> Tail {
    let blocks: Vec<Tail> = samples.chunks_exact(TAIL_BLOCK).map(tail).collect();
    if blocks.len() < 2 {
        return tail(samples);
    }
    Tail {
        value: median(&blocks.iter().map(|t| t.value).collect::<Vec<_>>()),
        percentile: blocks[0].percentile,
        beyond: blocks[0].beyond,
        samples: samples.len(),
        blocks: blocks.len(),
    }
}

/// Why an op failed. Every kind counts against `error_rate`: a refused
/// or shed op misses any latency limit as surely as a wrong answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// The system refused the op (admission `busy`, invalid request).
    Refused,
    /// The op was admitted but shed before it ran.
    Shed,
    /// The output differs from the reference.
    Mismatch,
    /// Numerical verification of the output failed.
    Verify,
    /// The op panicked or its process died.
    Panicked,
    /// The op did not finish within its deadline.
    TimedOut,
    /// The transport to the system failed.
    Transport,
}

impl Failure {
    /// Stable name used in the results file.
    pub fn name(self) -> &'static str {
        match self {
            Failure::Refused => "refused",
            Failure::Shed => "shed",
            Failure::Mismatch => "mismatch",
            Failure::Verify => "verify",
            Failure::Panicked => "panicked",
            Failure::TimedOut => "timed-out",
            Failure::Transport => "transport",
        }
    }
}

/// Attempted and failed op counts, with the failures broken down by
/// kind and the first few messages kept for the results file.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, of any kind.
    pub failed: u64,
    /// Failures per kind.
    pub by_kind: BTreeMap<Failure, u64>,
    /// The first failure messages, for diagnosis.
    pub messages: Vec<String>,
}

impl Tally {
    const MESSAGES_KEPT: usize = 20;

    /// Counts one op that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one op that failed.
    pub fn fail(&mut self, kind: Failure, message: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        *self.by_kind.entry(kind).or_default() += 1;
        if self.messages.len() < Self::MESSAGES_KEPT {
            let message = message.into();
            eprintln!("perfbench: op failed ({}): {message}", kind.name());
            self.messages.push(format!("{}: {message}", kind.name()));
        }
    }

    /// Counts one op: `Ok` succeeded, `Err` failed.
    pub fn record(&mut self, result: Result<(), (Failure, String)>) {
        match result {
            Ok(()) => self.ok(),
            Err((kind, message)) => self.fail(kind, message),
        }
    }

    /// Adds another tally's counts into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (kind, n) in other.by_kind {
            *self.by_kind.entry(kind).or_default() += n;
        }
        for message in other.messages {
            if self.messages.len() < Self::MESSAGES_KEPT {
                self.messages.push(message);
            }
        }
    }

    /// Failed ÷ attempted (`0` when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// SplitMix64: derives independent, reproducible streams from the
/// workload seed.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small seeded generator over [`mix`].
#[derive(Debug, Clone)]
pub struct Rng {
    seed: u64,
    next: u64,
}

impl Rng {
    /// A stream keyed by `seed` and `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng {
            seed: mix(seed, stream),
            next: 0,
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.next += 1;
        mix(self.seed, self.next)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 200 samples 1..=200: rank 190 is the 95th percentile and has
        // exactly 10 samples (191..=200) beyond it.
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 200);
        let beyond = samples.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_at_exactly_one_hundred_samples_is_p90() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.value, t.percentile), (90.0, 90.0));
    }

    #[test]
    fn short_runs_report_the_median_as_their_tail() {
        // 25 samples: rank 15 (p60) has exactly 10 beyond it.
        let t = tail(&(1..=25).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.value, t.percentile, t.beyond), (15.0, 60.0, 10));
        // 20 samples: rank 10 would be the lower median; the upper
        // median (rank 11) is reported instead.
        let t = tail(&(1..=20).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.value, t.percentile, t.beyond), (11.0, 55.0, 9));
        // A short run: the tail is the (upper) median, never below it.
        let few = tail(&[5.0, 9.0, 7.0, 6.0, 8.0]);
        assert_eq!((few.value, few.beyond, few.samples), (7.0, 2, 5));
        let even = [4.0, 1.0, 3.0, 2.0];
        assert!(tail(&even).value >= median(&even));
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn long_runs_report_the_median_of_their_blocks_p99() {
        // Three blocks whose p99s (rank 990) are 990, 1990 and 2990,
        // plus a short remainder that is dropped.
        let samples: Vec<f64> = (1..=3 * TAIL_BLOCK + 500).map(|i| i as f64).collect();
        let t = blocked_tail(&samples);
        assert_eq!((t.value, t.percentile, t.beyond), (1990.0, 99.0, 10));
        assert_eq!((t.samples, t.blocks), (3 * TAIL_BLOCK + 500, 3));
        // Twenty stalls in one block decide the whole run's tail but
        // only that block's p99: the median moves to the next block's.
        let mut stalled = samples.clone();
        for x in &mut stalled[..20] {
            *x = 1e9;
        }
        assert_eq!(tail(&stalled).value, 1e9);
        assert_eq!(blocked_tail(&stalled).value, 2990.0);
        // Under two full blocks: the rule over every sample.
        let short: Vec<f64> = (1..=1500).map(f64::from).collect();
        assert_eq!(blocked_tail(&short), tail(&short));
    }

    #[test]
    fn refused_shed_and_timed_out_ops_count_as_failed() {
        let mut t = Tally::default();
        t.ok();
        t.ok();
        t.fail(Failure::Refused, "busy");
        t.fail(Failure::Shed, "deadline");
        t.fail(Failure::TimedOut, "hung");
        t.record(Err((Failure::Mismatch, "bits".into())));
        t.record(Ok(()));
        assert_eq!(t.attempted, 7);
        assert_eq!(t.failed, 4);
        assert_eq!(t.by_kind[&Failure::Refused], 1);
        assert_eq!(t.by_kind[&Failure::Shed], 1);
        assert_eq!(t.by_kind[&Failure::TimedOut], 1);
        assert!((t.error_rate() - 4.0 / 7.0).abs() < 1e-12);

        let mut total = Tally::default();
        total.ok();
        total.merge(t);
        assert_eq!((total.attempted, total.failed), (8, 4));
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn seeded_streams_repeat_and_differ() {
        let draw = |stream| {
            let mut rng = Rng::new(7, stream);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        let (a, b, c) = (draw(1), draw(1), draw(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
